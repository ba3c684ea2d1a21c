//! End-to-end contract of the streaming ingestion engine: a sanitize
//! run fed through `dpsan-stream` (any shard count, any `jobs`)
//! produces **byte-identical** released output to the all-in-memory
//! path, and the ingestion-side memory stays bounded by the configured
//! chunk size + sketch capacity (asserted via the engine's counters,
//! not RSS).

use std::io::Cursor;

use dpsan::prelude::*;
use dpsan::searchlog::io::{read_tsv, write_tsv};
use dpsan::stream::sketch_frequent_pairs;

fn generated_tsv() -> Vec<u8> {
    let cfg = AolLikeConfig { n_users: 70, mean_events_per_user: 25.0, ..presets::aol_tiny() };
    let mut buf = Vec::new();
    dpsan::datagen::write_log_tsv(&cfg, &mut buf).expect("spool the generated log");
    buf
}

const SEED: u64 = 0xd95a_11ce;

/// Sanitize a log through any mechanism and render the released TSV
/// bytes.
fn release_with(log: &SearchLog, mechanism: &dyn Sanitizer) -> Vec<u8> {
    let params = PrivacyParams::from_e_epsilon(2.0, 0.5);
    let out = mechanism.sanitize(log, params, SEED).expect("sanitization succeeds");
    let mut bytes = Vec::new();
    write_tsv(&out.output, &mut bytes).expect("render TSV");
    bytes
}

/// UMP releases by objective (the original streaming contract).
fn release(log: &SearchLog, objective: UtilityObjective) -> Vec<u8> {
    release_with(log, &UmpSanitizer::new(objective))
}

#[test]
fn streaming_and_in_memory_releases_are_byte_identical() {
    let file = generated_tsv();
    let reference_log = read_tsv(Cursor::new(&file[..])).unwrap();
    let reference = release(&reference_log, UtilityObjective::OutputSize);
    assert!(!reference.is_empty(), "a generous budget releases something");

    for shards in [1usize, 4, 9] {
        for jobs in [1usize, 3] {
            let cfg = StreamConfig { shards, jobs, chunk_rows: 128, sketch_capacity: 512 };
            let got = ingest_tsv(Cursor::new(&file[..]), &cfg).unwrap();
            let released = release(&got.log, UtilityObjective::OutputSize);
            assert_eq!(
                released, reference,
                "shards={shards} jobs={jobs}: released bytes must match the in-memory path"
            );
        }
    }
}

/// The F-UMP mines its frequent set exactly from the log it solves, so
/// the streamed release equals the in-memory one. A sketch at an
/// evicting capacity mines that same set, which is what lets a caller
/// that still sketches (the benchmark driver) stand in for the exact
/// scan.
#[test]
fn fump_sketch_mining_matches_exact_mining() {
    let file = generated_tsv();
    let min_support = 0.01;

    let reference_log = read_tsv(Cursor::new(&file[..])).unwrap();
    let (pre, _) = preprocess(&reference_log);
    let output_size = (pre.size() / 20).max(1);
    let objective = UtilityObjective::FrequentPairs { min_support, output_size };
    let reference = release(&reference_log, objective.clone());

    // 384 counters per shard evict, yet keep the error bound under the
    // support threshold: the inexact candidate path runs, not the
    // exact-scan fallback
    for jobs in [1usize, 4] {
        let cfg = StreamConfig { shards: 6, jobs, chunk_rows: 256, sketch_capacity: 384 };
        let got = ingest_tsv(Cursor::new(&file[..]), &cfg).unwrap();
        let (pre_s, _) = preprocess(&got.log);
        let sketch = got.sketch.unwrap();
        assert!(sketch.error_bound() > 0, "the sketch evicted");
        assert!(
            (sketch.error_bound() as f64) < min_support * pre_s.size() as f64,
            "mining used the sketch candidates"
        );
        assert_eq!(
            sketch_frequent_pairs(&pre_s, &sketch, min_support),
            frequent_pairs(&pre_s, min_support),
            "jobs={jobs}"
        );
        assert_eq!(release(&got.log, objective.clone()), reference, "jobs={jobs}");
    }
}

/// The trait contract extends to the non-LP mechanisms: ZEALOUS and
/// per-user randomized response release byte-identical output whether
/// the log arrived in memory or through any sharded streaming layout.
/// (ZEALOUS draws one Laplace sample per candidate in pair-id order and
/// ldp-rr seeds per-user RNGs from the user *name*, so neither depends
/// on shard composition.)
#[test]
fn zealous_and_ldp_releases_are_shard_and_jobs_invariant() {
    let file = generated_tsv();
    let reference_log = read_tsv(Cursor::new(&file[..])).unwrap();
    let mechanisms: [Box<dyn Sanitizer>; 2] =
        [Box::new(ZealousSanitizer::new()), Box::new(LdpSanitizer::new())];

    for mech in &mechanisms {
        let reference = release_with(&reference_log, mech.as_ref());
        assert!(!reference.is_empty(), "{}: releases something", mech.info().id);
        for shards in [1usize, 4, 9] {
            for jobs in [1usize, 3] {
                let cfg = StreamConfig { shards, jobs, chunk_rows: 128, sketch_capacity: 512 };
                let got = ingest_tsv(Cursor::new(&file[..]), &cfg).unwrap();
                let released = release_with(&got.log, mech.as_ref());
                assert_eq!(
                    released,
                    reference,
                    "{} shards={shards} jobs={jobs}: released bytes must match the in-memory path",
                    mech.info().id
                );
            }
        }
    }
}

/// The zealous sketch-candidate path (what the benchmark driver's
/// `zealous` run does on streamed input) is byte-identical to the exact
/// coarse scan `sanitize` runs: the candidate mask is re-filtered
/// against exact totals, so the noise stream cannot drift.
#[test]
fn zealous_release_via_sketch_candidates_matches_exact_scan() {
    let file = generated_tsv();
    let reference_log = read_tsv(Cursor::new(&file[..])).unwrap();
    let exact = release_with(&reference_log, &ZealousSanitizer::new());

    let tau_prime = ZealousOptions::default().coarse_threshold;
    for jobs in [1usize, 4] {
        let cfg = StreamConfig { shards: 6, jobs, chunk_rows: 256, sketch_capacity: 256 };
        let got = ingest_tsv(Cursor::new(&file[..]), &cfg).unwrap();
        let (pre_s, _) = preprocess(&got.log);
        let support = tau_prime as f64 / pre_s.size() as f64;
        let candidates = sketch_frequent_pairs(&pre_s, &got.sketch.unwrap(), support);
        let mech = ZealousSanitizer::with_options(ZealousOptions {
            candidates: Some(candidates),
            ..Default::default()
        });
        let released = release_with(&got.log, &mech);
        assert_eq!(released, exact, "jobs={jobs}");
    }
}

#[test]
fn ingestion_memory_is_bounded_by_chunk_and_sketch_capacity() {
    let file = generated_tsv();
    let chunk_rows = 64;
    let sketch_capacity = 32;
    let cfg = StreamConfig { shards: 8, jobs: 2, chunk_rows, sketch_capacity };
    let mut session = IngestSession::new(cfg);
    session.ingest(Cursor::new(&file[..])).unwrap();
    let staged: usize = session.export_state().shards.iter().map(|s| s.triplets.len()).sum();
    let got = session.finish();

    // raw rows never pile up beyond one chunk
    assert!(got.report.rows > chunk_rows as u64, "the log is larger than one chunk");
    assert!(
        got.report.peak_chunk_rows <= chunk_rows,
        "peak resident raw rows {} exceed the chunk bound {chunk_rows}",
        got.report.peak_chunk_rows
    );
    // the sketch respects its counter budget despite seeing every row
    assert!(got.report.sketch_entries <= sketch_capacity);
    let sketch = got.sketch.unwrap();
    assert_eq!(sketch.total_weight(), got.log.size());
    // per-shard aggregation holds only the shard's triplets, which
    // together partition the log's triplets (user-complete shards)
    assert!(got.report.max_shard_triplets <= got.log.n_triplets());
    assert_eq!(staged, got.log.n_triplets());
}
