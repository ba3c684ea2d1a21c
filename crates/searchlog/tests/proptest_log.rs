//! Property tests of the search-log data model.

use dpsan_searchlog::{preprocess, Interner, LogRecord, PairId, SearchLog, SearchLogBuilder};
use proptest::prelude::*;

/// Random raw tuples over small id spaces (duplicates intended).
fn arb_tuples() -> impl Strategy<Value = Vec<(u8, u8, u8, u8)>> {
    prop::collection::vec((0u8..6, 0u8..5, 0u8..3, 1u8..5), 1..40)
}

fn build(tuples: &[(u8, u8, u8, u8)]) -> SearchLog {
    let mut b = SearchLogBuilder::new();
    for &(u, q, l, c) in tuples {
        b.add(&format!("u{u}"), &format!("q{q}"), &format!("l{l}"), c as u64).unwrap();
    }
    b.build()
}

/// Strings with heavy repetition: prefixes (the empty one included) of
/// a few words, half of them with a numeric suffix from a range wide
/// enough to grow the table a few times.
fn arb_strings() -> impl Strategy<Value = Vec<(u8, u8, u16)>> {
    prop::collection::vec((0u8..3, 0u8..6, 0u16..400), 0..700)
}

fn to_string(&(word, len, suffix): &(u8, u8, u16)) -> String {
    let word = &["abcde", "abxyz", "zzzzz"][word as usize][..len as usize];
    if suffix < 200 {
        format!("{word}{suffix}")
    } else {
        word.to_string()
    }
}

proptest! {
    /// `intern_batch` returns, window by window, exactly the ids of
    /// sequential `intern` calls and leaves the same interner behind,
    /// for windows of 1 to 129 strings (twice the stream engine's
    /// 64-string window, plus one), starting from a clone of an
    /// interner that already holds a prefix of the strings.
    #[test]
    fn intern_batch_assigns_the_ids_of_sequential_intern(
        strings in arb_strings(),
        window in 1usize..130,
        seeded in 0usize..100,
    ) {
        let strings: Vec<String> = strings.iter().map(to_string).collect();
        let strs: Vec<&str> = strings.iter().map(String::as_str).collect();
        let (seed, rest) = strs.split_at(seeded.min(strs.len()));
        let mut sequential = Interner::new();
        for s in seed {
            sequential.intern(s);
        }
        let mut batched = sequential.clone();
        let expect: Vec<u32> = rest.iter().map(|s| sequential.intern(s)).collect();
        let (mut hashes, mut got) = (Vec::new(), Vec::new());
        for w in rest.chunks(window) {
            batched.intern_batch(w, &mut hashes, &mut got);
        }
        prop_assert_eq!(got, expect);
        let all = |i: &Interner| i.iter().map(|(id, s)| (id, s.to_string())).collect::<Vec<_>>();
        prop_assert_eq!(all(&batched), all(&sequential));
        for s in &strs {
            prop_assert_eq!(batched.get(s), sequential.get(s));
        }
    }

    #[test]
    fn size_equals_sum_of_raw_counts(tuples in arb_tuples()) {
        let log = build(&tuples);
        let expect: u64 = tuples.iter().map(|&(_, _, _, c)| c as u64).sum();
        prop_assert_eq!(log.size(), expect);
    }

    #[test]
    fn pair_totals_equal_holder_sums(tuples in arb_tuples()) {
        let log = build(&tuples);
        for pe in log.pairs() {
            let holder_sum: u64 = log.holders(pe.pair).map(|t| t.count).sum();
            prop_assert_eq!(pe.total, holder_sum);
        }
    }

    #[test]
    fn user_and_pair_views_agree(tuples in arb_tuples()) {
        let log = build(&tuples);
        let mut via_users: u64 = 0;
        for k in log.users_with_logs() {
            via_users += log.user_log(k).map(|e| e.count).sum::<u64>();
        }
        prop_assert_eq!(via_users, log.size());
    }

    #[test]
    fn builder_roundtrip_preserves_records(tuples in arb_tuples()) {
        let log = build(&tuples);
        let mut b = SearchLogBuilder::with_vocabulary_of(&log);
        for r in log.records() {
            b.add_record(r).unwrap();
        }
        let log2 = b.build();
        let key = |r: &LogRecord| (r.query.0, r.url.0, r.user.0, r.count);
        let mut r1: Vec<_> = log.records().collect();
        let mut r2: Vec<_> = log2.records().collect();
        r1.sort_unstable_by_key(key);
        r2.sort_unstable_by_key(key);
        prop_assert_eq!(r1, r2);
    }

    #[test]
    fn preprocess_removes_exactly_single_holder_pairs(tuples in arb_tuples()) {
        let log = build(&tuples);
        let singles = (0..log.n_pairs())
            .filter(|&i| log.n_holders(PairId::from_index(i)) == 1)
            .count();
        let (pre, report) = preprocess(&log);
        prop_assert_eq!(report.removed_pairs, singles);
        prop_assert_eq!(pre.n_pairs(), log.n_pairs() - singles);
        // idempotence
        let (pre2, report2) = preprocess(&pre);
        prop_assert_eq!(report2.removed_pairs, 0);
        prop_assert_eq!(pre2.size(), pre.size());
    }

    #[test]
    fn tsv_roundtrip_is_lossless(tuples in arb_tuples()) {
        let log = build(&tuples);
        let mut buf = Vec::new();
        dpsan_searchlog::io::write_tsv(&log, &mut buf).unwrap();
        let back = dpsan_searchlog::io::read_tsv(std::io::Cursor::new(buf)).unwrap();
        prop_assert_eq!(back.size(), log.size());
        prop_assert_eq!(back.n_pairs(), log.n_pairs());
        prop_assert_eq!(back.n_user_logs(), log.n_user_logs());
        prop_assert_eq!(back.n_triplets(), log.n_triplets());
    }
}
