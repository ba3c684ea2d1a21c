//! Ingest-layer telemetry handles.
//!
//! | series | type | meaning |
//! |---|---|---|
//! | `dpsan_ingest_rows_total` | counter | records ingested across all sessions |
//! | `dpsan_ingest_chunks_total` | counter | bounded chunks consumed |
//! | `dpsan_ingest_shard_triplets_max` | gauge | peak staged triplet entries in any shard, after an `ingest` call: sorted runs plus the unfolded tail, so at most twice the aggregated triplets plus the fold floor |
//! | `dpsan_sketch_evictions_total` | counter | Misra–Gries eviction rounds (offer + merge); stays 0 unless a caller sets `sketch_capacity`, which no production caller does |
//! | `dpsan_stage_seconds{stage="ingest"}` | histogram | wall time of one `IngestSession::ingest` call (parse, intern, route) |
//! | `dpsan_stage_seconds{stage="parse"}` | histogram | busy time of the reader stage in one `ingest` call (read, parse, intern urls, route), waits excluded; it overlaps the `ingest` wall time |
//! | `dpsan_stage_seconds{stage="apply"}` | histogram | busy time of the session thread in one `ingest` call (intern users and queries, assign pair ids, append to shards), waits on the reader excluded; it overlaps the `ingest` wall time |
//! | `dpsan_stage_seconds{stage="merge"}` | histogram | wall time of one `IngestSession::snapshot` or `finish` (drain, merge) |
//!
//! Recording is observational only and off the per-record path: row
//! and chunk counts add once per `ingest` call, the shard gauge is a
//! running maximum, the eviction counter ticks only when a full sketch
//! actually evicts, and each stage time is one record per call.

use dpsan_obs::histogram::Histogram;
use dpsan_obs::{default_latency_bounds, global, Counter, Gauge};
use std::sync::{Arc, OnceLock};

/// Records ingested across all sessions.
pub fn rows_total() -> &'static Counter {
    static H: OnceLock<Counter> = OnceLock::new();
    H.get_or_init(|| global().counter("dpsan_ingest_rows_total"))
}

/// Bounded chunks consumed.
pub fn chunks_total() -> &'static Counter {
    static H: OnceLock<Counter> = OnceLock::new();
    H.get_or_init(|| global().counter("dpsan_ingest_chunks_total"))
}

/// Peak staged triplet entries in any shard (running maximum).
pub fn shard_triplets_max() -> &'static Gauge {
    static H: OnceLock<Gauge> = OnceLock::new();
    H.get_or_init(|| global().gauge("dpsan_ingest_shard_triplets_max"))
}

/// Misra–Gries eviction rounds, over both `offer` and `merge`.
pub fn sketch_evictions_total() -> &'static Counter {
    static H: OnceLock<Counter> = OnceLock::new();
    H.get_or_init(|| global().counter("dpsan_sketch_evictions_total"))
}

/// Wall time of each `IngestSession::ingest` call.
pub fn ingest_seconds() -> &'static Arc<Histogram> {
    static H: OnceLock<Arc<Histogram>> = OnceLock::new();
    H.get_or_init(|| {
        global().histogram("dpsan_stage_seconds{stage=\"ingest\"}", default_latency_bounds())
    })
}

/// Busy time of the reader stage in each `IngestSession::ingest` call.
pub fn parse_seconds() -> &'static Arc<Histogram> {
    static H: OnceLock<Arc<Histogram>> = OnceLock::new();
    H.get_or_init(|| {
        global().histogram("dpsan_stage_seconds{stage=\"parse\"}", default_latency_bounds())
    })
}

/// Busy time of the session thread in each `IngestSession::ingest` call.
pub fn apply_seconds() -> &'static Arc<Histogram> {
    static H: OnceLock<Arc<Histogram>> = OnceLock::new();
    H.get_or_init(|| {
        global().histogram("dpsan_stage_seconds{stage=\"apply\"}", default_latency_bounds())
    })
}

/// Wall time of each `IngestSession::snapshot` or `finish` call.
pub fn merge_seconds() -> &'static Arc<Histogram> {
    static H: OnceLock<Arc<Histogram>> = OnceLock::new();
    H.get_or_init(|| {
        global().histogram("dpsan_stage_seconds{stage=\"merge\"}", default_latency_bounds())
    })
}
