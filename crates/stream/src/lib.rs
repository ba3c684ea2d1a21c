//! # dpsan-stream
//!
//! Bounded-memory, sharded search-log ingestion for the `dpsan`
//! workspace: the layer that feeds the sanitization pipeline from disk
//! without ever materializing the raw stream.
//!
//! ```text
//! TSV file ──reader thread: chunked parse, intern urls, route──▶
//!     session thread: intern users and queries, pair ids (one session
//!     vocabulary) ──▶ user-hash shards: integer (pair, user, count)
//!     sorted runs ──parallel drain──▶ sort-only merge
//!     ──▶ SearchLog (≡ read_tsv build)
//! ```
//!
//! Per row the reader thread parses borrowed fields out of a reused
//! chunk buffer, interns the url and hashes the user to its shard; the
//! session thread interns the user and the query, and then does integer
//! work only: one pair-table lookup, keyed by two ids that the keyed
//! integer hasher ([`dpsan_searchlog::IdMap`]) hashes as one packed
//! `u64`, and one append to the shard's staged triplets. The merged log
//! holds every pair total, so frequent pairs are mined exactly from it
//! ([`dpsan_searchlog::frequent_pairs`]).
//!
//! * [`engine`] — the driver: two-stage chunked intake through
//!   [`dpsan_searchlog::TsvStream`], one session-wide
//!   [`dpsan_searchlog::Vocabulary`] that interns every string once in
//!   file order and numbers pairs through the same
//!   [`dpsan_searchlog::PairTable`] a one-shot
//!   [`read_tsv`](dpsan_searchlog::io::read_tsv) build uses (so the ids
//!   are exactly its ids), and a merge that only sorts integers and
//!   hands the vocabulary to the log — the result is the `read_tsv` log
//!   *bit for bit* for any shard count and any `jobs` value,
//! * [`shard`] — user-hash shards holding integer-only triplets, staged
//!   as sorted runs, and a row counter,
//! * [`sketch`] — a mergeable weighted Misra–Gries heavy-hitters
//!   sketch over interned `(query, url)` ids with the standard
//!   `N/(k+1)` error bound, plus exactified frequent-pair mining; off
//!   unless [`StreamConfig::sketch_capacity`] is set, which no
//!   production caller does (kept for the perfbench driver),
//! * [`pool`] — the scoped worker pool (shared with `dpsan-eval`,
//!   which re-exports it),
//! * [`obs`] — the layer's metric handles (rows/chunks ingested, peak
//!   shard size, sketch evictions, ingest, parse and merge stage
//!   seconds),
//!   recorded off the per-record path.
//!
//! ## Privacy invariant: shards are user-complete
//!
//! The differential-privacy unit of the paper is the **user**: the
//! mechanism's guarantee (Definition 2) is over the presence of one
//! user log `A_k`, and every privacy constraint row in `dpsan-core` /
//! `dpsan-dp` is a per-user row. Ingestion shards partition *users* —
//! `shard_of(user)` hashes the user id, so all of a user's records
//! land in exactly one shard and every shard holds only complete user
//! logs. The merged log therefore contains exactly the same per-user
//! logs as a one-shot build (in fact the identical `SearchLog`), and
//! the privacy accounting downstream is untouched: sharding is an
//! ingestion-layout choice, not a change to the mechanism. Splitting a
//! user *across* shards would be equally safe here only because the
//! merge re-sorts before anything privacy-relevant happens — but
//! user-completeness is what would let a future out-of-core pipeline
//! build per-user constraint rows shard-locally, so it is the
//! invariant this crate commits to and tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod obs;
pub mod pool;
pub mod shard;
pub mod sketch;

pub use engine::{
    ingest_path, ingest_tsv, IngestReport, IngestResult, IngestSession, PreprocessedIngest,
    SessionState, StreamConfig, VocabState,
};
pub use shard::{shard_of, user_hash, ShardIntake, ShardState};
pub use sketch::{sketch_frequent_pairs, PairSketch, SketchEntry};
