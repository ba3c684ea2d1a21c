//! Streaming sanitize: the bounded-memory ingestion path end to end.
//!
//! ```sh
//! cargo run --example streaming_sanitize
//! ```
//!
//! Spools a generated log to TSV bytes (one user's aggregation in
//! memory at a time), ingests it through the sharded `dpsan-stream`
//! engine (chunked intake, user-hash shards, a drain that drops every
//! pair only one user holds, sort-only merge) and sanitizes it with the
//! F-UMP, which mines its frequent pairs exactly from the drained log —
//! after proving that log identical to the all-in-memory build,
//! preprocessed.

use std::io::Cursor;

use dpsan::prelude::*;
use dpsan::searchlog::io::read_tsv;

fn main() {
    // a tiny AOL-like log, spooled to TSV "on disk" (here: a buffer)
    let cfg = AolLikeConfig { n_users: 80, mean_events_per_user: 25.0, ..presets::aol_tiny() };
    let mut file = Vec::new();
    dpsan::datagen::write_log_tsv(&cfg, &mut file).expect("spool the generated log");
    println!("spooled {} bytes of TSV", file.len());

    // bounded-memory ingestion: 8 user-hash shards, ≤512 raw rows
    // resident; the drain preprocesses, as `sanitize` does
    let stream_cfg = StreamConfig { shards: 8, chunk_rows: 512, sketch_capacity: 0, jobs: 2 };
    let mut session = IngestSession::new(stream_cfg);
    session.ingest(Cursor::new(&file[..])).expect("ingest the log");
    let ingest = session.finish_preprocessed();
    println!(
        "ingested {} rows (peak {} raw rows resident, largest shard {} triplets); \
         the drain removed {} single-holder pair(s)",
        ingest.report.rows,
        ingest.report.peak_chunk_rows,
        ingest.report.max_shard_triplets,
        ingest.preprocess.removed_pairs
    );

    // the drained log is *identical* to the one-shot in-memory build,
    // preprocessed
    let (reference, _) = preprocess(&read_tsv(Cursor::new(&file[..])).expect("one-shot build"));
    assert_eq!(
        ingest.log.records().collect::<Vec<_>>(),
        reference.records().collect::<Vec<_>>(),
        "streamed and in-memory logs agree, ids and all"
    );

    // the drained log holds every kept pair's total: the frequent pairs
    // the F-UMP protects are one exact pass over them
    let pre = ingest.log;
    let min_support = 0.01;
    let frequent = frequent_pairs(&pre, min_support);
    println!("{} frequent pairs at support {min_support}", frequent.len());

    // sanitize: the F-UMP mines the same set from the log it solves
    let params = PrivacyParams::from_e_epsilon(2.0, 0.5);
    let output_size = (pre.size() / 20).max(1);
    let mechanism = UmpSanitizer::new(UtilityObjective::FrequentPairs { min_support, output_size });
    let mut ledger = BudgetLedger::new();
    let result =
        mechanism.sanitize_into(&pre, params, 7, &mut ledger).expect("sanitization succeeds");
    println!(
        "sanitized: |O| = {} over {} pairs (input size {})",
        result.output.size(),
        result.output.n_pairs(),
        pre.size()
    );
    println!("{ledger}");
}
