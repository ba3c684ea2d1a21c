//! # dpsan-searchlog
//!
//! Search-log substrate for the `dpsan` workspace: the data model of
//! *Differentially Private Search Log Sanitization with Optimal Output
//! Utility* (Hong, Vaidya, Lu, Wu — EDBT 2012).
//!
//! A search log `D` is a multiset of tuples `(s_k, q_i, u_j, c_ijk)`:
//! pseudonymous user-ID, query, clicked url, and the click-through count
//! of the query–url *pair* `(q_i, u_j)` for that user. This crate
//! provides:
//!
//! * interned, typed identifiers ([`ids`], [`intern`]) and the keyed
//!   integer hasher of id-keyed maps ([`IdMap`]),
//! * the id space of a log, one [`Vocabulary`] whose [`PairTable`]
//!   assigns every pair id ([`vocab`]),
//! * an immutable aggregated [`SearchLog`] with both the pair histogram
//!   `c_ij` and the triplet histogram `c_ijk` in CSR form, indexed by
//!   pair *and* by user (the user log `A_k` of Definition 1),
//! * Condition-1 preprocessing (removal of pairs held entirely by one
//!   user) in [`preprocess`](preprocess()),
//! * Table-3 style dataset statistics in [`stats`],
//! * frequent-pair (support) extraction in [`frequent`],
//! * AOL-format and native TSV io in [`io`], including the chunked,
//!   zero-copy [`TsvStream`] reader that feeds the `dpsan-stream`
//!   bounded-memory ingestion engine.
//!
//! Everything downstream (privacy constraints, utility-maximizing
//! problems, multinomial sampling) is a pure function of the histograms
//! stored here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod frequent;
pub mod ids;
pub mod intern;
pub mod io;
pub mod log;
pub mod preprocess;
pub mod record;
pub mod stats;
pub mod vocab;

pub use error::LogError;
pub use frequent::{frequent_pairs, FrequentPair};
pub use ids::{id_map_with_capacity, IdMap, IdPair, PairId, QueryId, UrlId, UserId};
pub use intern::Interner;
pub use io::{RecordRef, TsvChunk, TsvStream};
pub use log::{PairEntry, SearchLog, SearchLogBuilder, TripletRef, UserLogRef};
pub use preprocess::{preprocess, PreprocessReport};
pub use record::LogRecord;
pub use stats::LogStats;
pub use vocab::{PairTable, Vocabulary};
