//! Property tests of the streaming ingestion engine: the streamed log
//! is the in-memory log, the preprocessing drain's log is the
//! in-memory log preprocessed, and sketch mining agrees with the exact
//! frequent-pair scan — with the guaranteed-completeness band
//! (`min_support · |D| > N/k` slack) checked against the sketch
//! *alone*, before any exactification.

use std::io::Cursor;

use dpsan_searchlog::io::read_tsv;
use dpsan_searchlog::{frequent_pairs, preprocess, PairId, QueryId, SearchLog, UrlId, UserId};
use dpsan_stream::{
    ingest_tsv, sketch_frequent_pairs, IngestSession, PairSketch, PreprocessedIngest, StreamConfig,
};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// Random raw tuples over small id spaces (duplicates intended).
fn arb_tuples() -> impl Strategy<Value = Vec<(u8, u8, u8, u8)>> {
    prop::collection::vec((0u8..12, 0u8..8, 0u8..4, 1u8..6), 1..60)
}

fn to_tsv(tuples: &[(u8, u8, u8, u8)]) -> String {
    tuples.iter().map(|&(u, q, l, c)| format!("user{u}\tq{q}\tl{l}\t{c}\n")).collect()
}

/// Structural identity: same interner orders, same ids, same counts.
fn assert_same_log(got: &SearchLog, reference: &SearchLog) -> Result<(), TestCaseError> {
    let vocab =
        |i: &dpsan_searchlog::Interner| i.iter().map(|(_, s)| s.to_string()).collect::<Vec<_>>();
    prop_assert_eq!(vocab(got.users()), vocab(reference.users()));
    prop_assert_eq!(vocab(got.queries()), vocab(reference.queries()));
    prop_assert_eq!(vocab(got.urls()), vocab(reference.urls()));
    prop_assert_eq!(got.records().collect::<Vec<_>>(), reference.records().collect::<Vec<_>>());
    Ok(())
}

/// The preprocessing drain's output against the independent oracle,
/// `preprocess` of the raw in-memory build `raw`: the same interner
/// orders, pair ids and records, every user log, and every field of
/// the report.
fn assert_preprocessed(got: &PreprocessedIngest, raw: &SearchLog) -> Result<(), TestCaseError> {
    let (reference, report) = preprocess(raw);
    assert_same_log(&got.log, &reference)?;
    let keys = |l: &SearchLog| {
        (0..l.n_pairs()).map(|i| l.pair_key(PairId::from_index(i))).collect::<Vec<_>>()
    };
    prop_assert_eq!(keys(&got.log), keys(&reference));
    prop_assert_eq!(got.log.n_users(), reference.n_users());
    for k in 0..reference.n_users() {
        let k = UserId::from_index(k);
        prop_assert!(got.log.user_log(k).eq(reference.user_log(k)), "user log {:?}", k);
    }
    prop_assert_eq!(got.preprocess.removed_pairs, report.removed_pairs);
    prop_assert_eq!(got.preprocess.removed_count, report.removed_count);
    prop_assert_eq!(got.preprocess.emptied_users, report.emptied_users);
    Ok(())
}

/// Every pair of `log`, and of its preprocessed log, is found again
/// by its key.
fn assert_pair_lookups(log: &SearchLog) -> Result<(), TestCaseError> {
    for l in [log, &preprocess(log).0] {
        for e in l.pairs() {
            let (q, u) = l.pair_key(e.pair);
            prop_assert_eq!(l.pair_id(q, u), Some(e.pair));
        }
    }
    Ok(())
}

proptest! {
    #[test]
    fn streamed_log_is_the_in_memory_log(
        tuples in arb_tuples(),
        shards in 1usize..7,
        jobs in 1usize..4,
        chunk in 1usize..9,
        split in 0usize..60,
    ) {
        let text = to_tsv(&tuples);
        let reference = read_tsv(Cursor::new(text.as_str())).unwrap();
        let cfg = StreamConfig { shards, chunk_rows: chunk, jobs, ..Default::default() };
        let got = ingest_tsv(Cursor::new(text.as_str()), &cfg).unwrap();
        assert_same_log(&got.log, &reference)?;
        // and the memory counters respect their bounds
        prop_assert!(got.report.peak_chunk_rows <= chunk);
        prop_assert_eq!(got.report.rows, tuples.len() as u64);

        // a snapshot taken mid-stream keeps its pair table while intake
        // goes on
        let split = split.min(tuples.len());
        let mut session = IngestSession::new(cfg);
        session.ingest(Cursor::new(to_tsv(&tuples[..split]))).unwrap();
        let snap = session.snapshot();
        session.ingest(Cursor::new(to_tsv(&tuples[split..]))).unwrap();
        let prefix = read_tsv(Cursor::new(to_tsv(&tuples[..split]))).unwrap();
        assert_same_log(&snap.log, &prefix)?;
        assert_same_log(&session.finish().log, &reference)?;

        // every build path finds each pair by its key
        for log in [&got.log, &snap.log, &reference] {
            assert_pair_lookups(log)?;
        }
    }

    /// The preprocessing drain, consuming or mid-stream, is
    /// `read_tsv` + `preprocess` of what was ingested so far, for any
    /// shard count, drain parallelism, chunk size and split point; and
    /// its memory counters are the raw drain's.
    #[test]
    fn preprocessing_drain_is_the_in_memory_log_preprocessed(
        tuples in arb_tuples(),
        shards in 1usize..7,
        jobs in 1usize..4,
        chunk in 1usize..9,
        split in 0usize..60,
    ) {
        let text = to_tsv(&tuples);
        let reference = read_tsv(Cursor::new(text.as_str())).unwrap();
        let cfg = StreamConfig { shards, chunk_rows: chunk, jobs, ..Default::default() };
        let mut one_shot = IngestSession::new(cfg.clone());
        one_shot.ingest(Cursor::new(text.as_str())).unwrap();
        let raw = one_shot.snapshot();
        let got = one_shot.finish_preprocessed();
        assert_preprocessed(&got, &reference)?;
        prop_assert_eq!(got.report.rows, raw.report.rows);
        prop_assert_eq!(got.report.max_shard_triplets, raw.report.max_shard_triplets);

        let split = split.min(tuples.len());
        let mut session = IngestSession::new(cfg);
        session.ingest(Cursor::new(to_tsv(&tuples[..split]))).unwrap();
        let snap = session.snapshot_preprocessed();
        let prefix = read_tsv(Cursor::new(to_tsv(&tuples[..split]))).unwrap();
        assert_preprocessed(&snap, &prefix)?;
        // the session kept every pair: a pair with one holder in the
        // prefix may gain its second one in the rest
        session.ingest(Cursor::new(to_tsv(&tuples[split..]))).unwrap();
        assert_preprocessed(&session.snapshot_preprocessed(), &reference)?;
        assert_preprocessed(&session.finish_preprocessed(), &reference)?;
    }

    /// Chunks whose length is not a multiple of the engine's 64-string
    /// interning window, so windows end at chunk ends mid-window.
    #[test]
    fn interning_windows_straddling_chunk_ends_match_read_tsv(
        tuples in prop::collection::vec((0u8..40, 0u8..60, 0u8..50, 1u8..4), 1..400),
        shards in 1usize..5,
        chunk in 1usize..200,
    ) {
        prop_assume!(chunk % 64 != 0);
        let text = to_tsv(&tuples);
        let reference = read_tsv(Cursor::new(text.as_str())).unwrap();
        let cfg = StreamConfig { shards, chunk_rows: chunk, jobs: 2, ..Default::default() };
        let got = ingest_tsv(Cursor::new(text.as_str()), &cfg).unwrap();
        assert_same_log(&got.log, &reference)?;
    }

    #[test]
    fn sketch_mining_agrees_with_exact_scan(
        tuples in arb_tuples(),
        shards in 1usize..7,
        capacity in 2usize..12,
        support_pct in 1u64..40,
    ) {
        let text = to_tsv(&tuples);
        let cfg = StreamConfig { shards, sketch_capacity: capacity, ..Default::default() };
        let got = ingest_tsv(Cursor::new(text.as_str()), &cfg).unwrap();
        let sketch = got.sketch.unwrap();
        let min_support = support_pct as f64 / 100.0;

        // (a) end-to-end mining (sketch candidates + exactification,
        // with the documented fallback below the error bound) equals
        // the exact scan for EVERY support level and shard count
        let exact = frequent_pairs(&got.log, min_support);
        let mined = sketch_frequent_pairs(&got.log, &sketch, min_support);
        prop_assert_eq!(mined, exact.clone());

        // (b) the sketch *alone* is complete above the slack band: a
        // pair whose count clears min_support·|D| + N/k must survive
        // with its estimate within error_bound of the truth
        let n = sketch.total_weight();
        let k = sketch.capacity() as u64;
        prop_assert!(sketch.error_bound() <= n / (k + 1), "MG bound violated");
        let slack_threshold = min_support * n as f64 + (n / k) as f64;
        for f in &exact {
            if (f.count as f64) < slack_threshold {
                continue;
            }
            let (q, u) = got.log.pair_key(f.pair);
            let est = sketch
                .estimate(q, u)
                .expect("pair above the slack band survives in the sketch");
            prop_assert!(est <= f.count);
            prop_assert!(est + sketch.error_bound() >= f.count);
        }
    }

    #[test]
    fn sketch_merge_equals_single_stream_for_ample_capacity(
        tuples in arb_tuples(),
        shards in 2usize..6,
    ) {
        // with capacity >= distinct pairs, both the sharded-and-merged
        // sketch and a single-stream sketch are exact: same entries
        let text = to_tsv(&tuples);
        let cfg = StreamConfig { shards, sketch_capacity: 64, ..Default::default() };
        let got = ingest_tsv(Cursor::new(text.as_str()), &cfg).unwrap();
        let merged = got.sketch.unwrap();
        // the single stream keys by the same session ids
        let mut single = PairSketch::new(64);
        for &(_, q, l, c) in &tuples {
            let q = QueryId(got.log.queries().get(&format!("q{q}")).unwrap());
            let l = UrlId(got.log.urls().get(&format!("l{l}")).unwrap());
            single.offer(q, l, c as u64);
        }
        prop_assert_eq!(merged.error_bound(), 0);
        prop_assert_eq!(merged.entries(), single.entries());
    }
}

/// Both drains of one input, consuming and not, checked against the
/// oracle; returns the consuming one.
fn drain_both_ways(text: &str) -> PreprocessedIngest {
    let reference = read_tsv(Cursor::new(text)).unwrap();
    let cfg = StreamConfig { shards: 3, chunk_rows: 2, jobs: 2, ..Default::default() };
    let mut session = IngestSession::new(cfg);
    session.ingest(Cursor::new(text)).unwrap();
    assert_preprocessed(&session.snapshot_preprocessed(), &reference).unwrap();
    let got = session.finish_preprocessed();
    assert_preprocessed(&got, &reference).unwrap();
    got
}

#[test]
fn every_pair_single_holder_drains_to_an_empty_log() {
    let got = drain_both_ways("u1\tq1\tl\t2\nu2\tq2\tl\t3\nu1\tq3\tl\t1\nu1\tq1\tl\t4\n");
    assert_eq!((got.log.n_pairs(), got.log.size(), got.log.n_user_logs()), (0, 0, 0));
    assert_eq!(got.log.n_users(), 2, "the interners keep every user");
    let r = got.preprocess;
    assert_eq!((r.removed_pairs, r.removed_count, r.emptied_users), (3, 10, 2));
}

#[test]
fn no_single_holder_pair_keeps_every_pair() {
    let text = "u1\tq1\tl\t2\nu2\tq1\tl\t3\nu2\tq2\tm\t1\nu3\tq2\tm\t5\nu1\tq1\tl\t1\n";
    let got = drain_both_ways(text);
    assert_same_log(&got.log, &read_tsv(Cursor::new(text)).unwrap()).unwrap();
    let r = got.preprocess;
    assert_eq!((r.removed_pairs, r.removed_count, r.emptied_users), (0, 0, 0));
}
