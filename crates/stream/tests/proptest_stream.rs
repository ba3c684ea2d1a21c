//! Property tests of the streaming ingestion engine: the streamed log
//! is the in-memory log, and sketch mining agrees with the exact
//! frequent-pair scan — with the guaranteed-completeness band
//! (`min_support · |D| > N/k` slack) checked against the sketch
//! *alone*, before any exactification.

use std::io::Cursor;

use dpsan_searchlog::io::read_tsv;
use dpsan_searchlog::{frequent_pairs, QueryId, UrlId};
use dpsan_stream::{ingest_tsv, sketch_frequent_pairs, PairSketch, StreamConfig};
use proptest::prelude::*;

/// Random raw tuples over small id spaces (duplicates intended).
fn arb_tuples() -> impl Strategy<Value = Vec<(u8, u8, u8, u8)>> {
    prop::collection::vec((0u8..12, 0u8..8, 0u8..4, 1u8..6), 1..60)
}

fn to_tsv(tuples: &[(u8, u8, u8, u8)]) -> String {
    tuples.iter().map(|&(u, q, l, c)| format!("user{u}\tq{q}\tl{l}\t{c}\n")).collect()
}

proptest! {
    #[test]
    fn streamed_log_is_the_in_memory_log(
        tuples in arb_tuples(),
        shards in 1usize..7,
        jobs in 1usize..4,
        chunk in 1usize..9,
    ) {
        let text = to_tsv(&tuples);
        let reference = read_tsv(Cursor::new(text.as_str())).unwrap();
        let cfg = StreamConfig { shards, chunk_rows: chunk, jobs, ..Default::default() };
        let got = ingest_tsv(Cursor::new(text.as_str()), &cfg).unwrap();
        // structural identity: same interner orders, same ids, same counts
        let vocab = |i: &dpsan_searchlog::Interner| {
            i.iter().map(|(_, s)| s.to_string()).collect::<Vec<_>>()
        };
        prop_assert_eq!(vocab(got.log.users()), vocab(reference.users()));
        prop_assert_eq!(vocab(got.log.queries()), vocab(reference.queries()));
        prop_assert_eq!(vocab(got.log.urls()), vocab(reference.urls()));
        let recs = |l: &dpsan_searchlog::SearchLog| l.records().collect::<Vec<_>>();
        prop_assert_eq!(recs(&got.log), recs(&reference));
        // and the memory counters respect their bounds
        prop_assert!(got.report.peak_chunk_rows <= chunk);
        prop_assert_eq!(got.report.rows, tuples.len() as u64);
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
