//! # dpsan-stream
//!
//! Bounded-memory, sharded search-log ingestion for the `dpsan`
//! workspace: the layer that feeds the sanitization pipeline from disk
//! without ever materializing the raw stream.
//!
//! ```text
//! TSV file ──zero-copy chunked reader──▶ intern once (session
//!     vocabulary, global pair ids) ──▶ user-hash shards: integer
//!     (pair, user) → count
//!     ──parallel drain to sorted runs──▶ sort-only merge
//!     ──▶ SearchLog (≡ read_tsv build)
//! ```
//!
//! Per row the intake parses borrowed fields out of one reused chunk
//! buffer, interns three strings, and then does integer work only:
//! one pair-table lookup and one shard-map update, each keyed by two
//! ids that the keyed integer hasher ([`dpsan_searchlog::IdMap`])
//! hashes as one packed `u64`. The merged log holds every pair total,
//! so frequent pairs are mined exactly from it
//! ([`dpsan_searchlog::frequent_pairs`]).
//!
//! * [`engine`] — the driver: chunked intake through
//!   [`dpsan_searchlog::TsvStream`], one session-wide vocabulary that
//!   interns every string once in file order (so ids are exactly the
//!   ones a one-shot [`read_tsv`](dpsan_searchlog::io::read_tsv) build
//!   assigns), and a merge that only sorts integers — the result is the
//!   `read_tsv` log *bit for bit* for any shard count and any `jobs`
//!   value,
//! * [`shard`] — user-hash shards holding integer-only triplet maps and
//!   mergeable statistics,
//! * [`sketch`] — a mergeable weighted Misra–Gries heavy-hitters
//!   sketch over interned `(query, url)` ids with the standard
//!   `N/(k+1)` error bound, plus exactified frequent-pair mining; off
//!   unless [`StreamConfig::sketch_capacity`] is set, which no
//!   production caller does (kept for the perfbench driver),
//! * [`pool`] — the scoped worker pool (shared with `dpsan-eval`,
//!   which re-exports it),
//! * [`obs`] — the layer's metric handles (rows/chunks ingested, peak
//!   shard size, sketch evictions, ingest and merge stage seconds),
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
    ingest_path, ingest_tsv, IngestReport, IngestResult, IngestSession, SessionState, StreamConfig,
    VocabState,
};
pub use shard::{shard_of, user_hash, ShardIntake, ShardState};
pub use sketch::{sketch_frequent_pairs, PairSketch, SketchEntry};
