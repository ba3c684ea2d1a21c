//! A scoped worker pool for grid shards.
//!
//! Experiments split their parameter grids into *data-defined* shards
//! (fixed-size chunks of a sorted budget list, one δ-curve, one support
//! row …) and run them here. Shard composition never depends on the
//! worker count, and each shard is processed sequentially by exactly
//! one worker, so the results — hence the rendered tables — are
//! byte-identical for every `--jobs` value. `jobs` only controls how many shards are in
//! flight at once.
//!
//! The implementation lives in [`dpsan_stream::pool`] since the
//! streaming ingestion engine drains its user-hash shards through the
//! same scaffolding; this module re-exports it so existing
//! `dpsan_eval::pool` callers are unaffected.

pub use dpsan_stream::pool::run_sharded;
