//! A mergeable Misra–Gries heavy-hitters sketch over query–url pairs.
//!
//! The classic frequent-items summary (Misra & Gries 1982), in its
//! weighted form: at most `k` counters are kept; offering weight `w`
//! to a missing key when all slots are full decrements every counter
//! (and the incoming weight) by the same amount, freeing a slot iff
//! the incoming weight exceeded the current minimum. Counters only
//! ever *under*estimate, and the total decremented weight — the
//! per-key error bound — is at most `N/(k+1)` for total offered
//! weight `N`.
//!
//! Sketches are **mergeable** (Agarwal et al., *Mergeable Summaries*,
//! PODS 2012): summing two sketches' counters and subtracting the
//! `(k+1)`-th largest value restores the size bound while keeping the
//! combined error within `(N₁+N₂)/(k+1)`. That is what makes the
//! sketch fit the sharded ingestion engine: each user-hash shard
//! sketches its own substream, and the drain merges them in shard
//! order into one bounded summary of the whole log.
//!
//! ## Keys
//!
//! A counter is keyed by the pair's interned `(QueryId, UrlId)`, hashed
//! as one packed `u64` by the keyed integer hasher ([`IdMap`]). An offer is therefore one integer lookup: no
//! string is built, hashed or boxed per row. Query and url ids survive
//! preprocessing (it renumbers pairs but shares the interners), so
//! mining finds each candidate with one [`SearchLog::pair_id`] call.
//! Offer, evict and merge never depend on iteration order, so the
//! counters are the same whatever the key encoding. Sketches are never
//! persisted: checkpoints hold only non-sketching sessions.
//!
//! Frequent-pair mining uses the sketch as a *candidate generator*:
//! every pair whose true count clears the support threshold is
//! guaranteed to survive (estimate + error ≥ true count), and the
//! candidates are then exactified against the materialized log — so
//! the mined set equals the exact [`frequent_pairs`] result while the
//! sketch pass itself stays bounded-memory.
//!
//! [`frequent_pairs`]: dpsan_searchlog::frequent_pairs
//!
//! No production caller: `sanitize` mines frequent pairs exactly from
//! the merged log. Kept for the perfbench driver, whose `zealous` run
//! still mines its coarse-phase candidates here.

use dpsan_searchlog::{
    frequent_pairs, id_map_with_capacity, FrequentPair, IdMap, IdPair, QueryId, SearchLog, UrlId,
};

/// A bounded-size weighted Misra–Gries summary keyed by interned
/// `(query, url)` ids.
///
/// No production caller; kept for the perfbench driver.
#[derive(Debug, Clone)]
pub struct PairSketch {
    capacity: usize,
    // (query, url) -> estimate
    counters: IdMap<u64>,
    weight: u64,
    decrements: u64,
}

/// One surviving sketch entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SketchEntry {
    /// The query id.
    pub query: QueryId,
    /// The url id.
    pub url: UrlId,
    /// The (under)estimated count: `true − error_bound ≤ estimate ≤
    /// true`.
    pub estimate: u64,
}

impl PairSketch {
    /// An empty sketch with room for `capacity` counters (must be at
    /// least 1).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "sketch capacity must be at least 1");
        PairSketch {
            capacity,
            counters: id_map_with_capacity(capacity + 1),
            weight: 0,
            decrements: 0,
        }
    }

    /// The counter bound `k`.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of live counters (`≤ capacity`).
    pub fn len(&self) -> usize {
        self.counters.len()
    }

    /// Whether no counter is live.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
    }

    /// Total weight offered so far (`N`), including merged-in weight.
    pub fn total_weight(&self) -> u64 {
        self.weight
    }

    /// The uniform per-key error bound: for every key,
    /// `estimate ≤ true ≤ estimate + error_bound()`, and
    /// `error_bound() ≤ total_weight() / (capacity + 1)`.
    pub fn error_bound(&self) -> u64 {
        self.decrements
    }

    /// Offer `count` observations of `(query, url)`.
    pub fn offer(&mut self, query: QueryId, url: UrlId, count: u64) {
        debug_assert!(count > 0, "counts are strictly positive in a valid log");
        self.weight += count;
        let key = IdPair(query.0, url.0);
        if let Some(c) = self.counters.get_mut(&key) {
            *c += count;
            return;
        }
        if self.counters.len() < self.capacity {
            self.counters.insert(key, count);
            return;
        }
        // all slots full: decrement everything (and the incoming
        // weight) by min(count, current minimum); the remainder, if
        // any, takes a freed slot
        let m = *self.counters.values().min().expect("capacity >= 1 and map is full");
        let d = m.min(count);
        self.decrements += d;
        crate::obs::sketch_evictions_total().inc();
        self.counters.retain(|_, c| {
            *c -= d;
            *c > 0
        });
        if count > d {
            self.counters.insert(key, count - d);
        }
    }

    /// Merge `other` into `self` (capacities must match): counters are
    /// summed and, if more than `capacity` survive, the `(k+1)`-th
    /// largest value is subtracted from all of them. Error bounds add.
    pub fn merge(&mut self, other: &PairSketch) {
        assert_eq!(self.capacity, other.capacity, "can only merge sketches of equal capacity");
        self.weight += other.weight;
        self.decrements += other.decrements;
        for (&k, &v) in &other.counters {
            *self.counters.entry(k).or_insert(0) += v;
        }
        if self.counters.len() > self.capacity {
            let mut vals: Vec<u64> = self.counters.values().copied().collect();
            vals.sort_unstable_by(|a, b| b.cmp(a));
            let s = vals[self.capacity];
            self.decrements += s;
            crate::obs::sketch_evictions_total().inc();
            self.counters.retain(|_, c| {
                if *c > s {
                    *c -= s;
                    true
                } else {
                    false
                }
            });
        }
    }

    /// The estimate for one pair, if it survived (`None` means the
    /// true count is at most [`PairSketch::error_bound`]).
    pub fn estimate(&self, query: QueryId, url: UrlId) -> Option<u64> {
        self.counters.get(&IdPair(query.0, url.0)).copied()
    }

    /// All surviving entries, sorted by descending estimate, then
    /// query id, then url id — a deterministic order independent of
    /// hash iteration.
    pub fn entries(&self) -> Vec<SketchEntry> {
        let mut out: Vec<SketchEntry> = self
            .counters
            .iter()
            .map(|(&IdPair(q, u), &estimate)| SketchEntry {
                query: QueryId(q),
                url: UrlId(u),
                estimate,
            })
            .collect();
        out.sort_unstable_by(|a, b| {
            b.estimate.cmp(&a.estimate).then_with(|| (a.query, a.url).cmp(&(b.query, b.url)))
        });
        out
    }

    /// Candidate pairs whose true count may reach `threshold`: every
    /// key with `estimate + error_bound ≥ threshold`. Whenever the
    /// threshold exceeds `error_bound` this is complete — a pair with
    /// true count at least `threshold` is always returned (its
    /// estimate stays positive, so it survived) — and pairs below
    /// `threshold − error_bound` never are. At or below the error
    /// bound the sketch cannot certify completeness: a key that small
    /// may have been evicted outright.
    pub fn candidates_at_least(&self, threshold: f64) -> Vec<SketchEntry> {
        let mut out = self.entries();
        out.retain(|e| (e.estimate + self.decrements) as f64 >= threshold);
        out
    }
}

/// Mine the frequent pairs of a (typically preprocessed) log through a
/// sketch of the *raw* stream: sketch candidates at the absolute count
/// threshold `min_support · |log|`, then exactify each against the
/// log's pair totals.
///
/// The sketch's ids must come from `log`'s vocabulary — the ingestion
/// engine's sketch and any log derived from its output share it.
///
/// Returns exactly [`frequent_pairs`]`(log, min_support)` — same
/// pairs, same counts, same order — whenever the sketch saw every
/// record of the stream `log` was built from. Completeness holds
/// because preprocessing only drops whole pairs (surviving pairs keep
/// their full raw count), so a pair frequent in `log` clears the same
/// absolute threshold in the raw stream and must appear among the
/// sketch candidates — *provided* the threshold exceeds the sketch's
/// error bound. An under-capacity sketch whose error bound swallows
/// the threshold cannot certify completeness, so that case falls back
/// to the exact scan (the log is materialized by then anyway); the
/// result is identical either way, only the mining cost differs.
///
/// No production caller; kept for the perfbench driver.
pub fn sketch_frequent_pairs(
    log: &SearchLog,
    sketch: &PairSketch,
    min_support: f64,
) -> Vec<FrequentPair> {
    assert!(min_support > 0.0 && min_support <= 1.0, "support must be in (0, 1]");
    if log.size() == 0 {
        return Vec::new();
    }
    let size = log.size() as f64;
    let threshold = min_support * size;
    if threshold <= sketch.error_bound() as f64 {
        return frequent_pairs(log, min_support);
    }
    let mut out: Vec<FrequentPair> = sketch
        .candidates_at_least(threshold)
        .into_iter()
        .filter_map(|e| {
            let pair = log.pair_id(e.query, e.url)?;
            let count = log.pair_total(pair);
            let support = count as f64 / size;
            (support >= min_support).then_some(FrequentPair { pair, count, support })
        })
        .collect();
    out.sort_unstable_by(|a, b| b.count.cmp(&a.count).then(a.pair.cmp(&b.pair)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpsan_searchlog::{Interner, SearchLogBuilder};

    /// Names pairs by strings in the tests: interns them into ids the
    /// way the ingestion session does.
    #[derive(Default)]
    struct Vocab {
        queries: Interner,
        urls: Interner,
    }

    impl Vocab {
        fn ids(&mut self, q: &str, u: &str) -> (QueryId, UrlId) {
            (QueryId(self.queries.intern(q)), UrlId(self.urls.intern(u)))
        }

        fn offer(&mut self, sk: &mut PairSketch, q: &str, u: &str, count: u64) {
            let (q, u) = self.ids(q, u);
            sk.offer(q, u, count);
        }

        fn estimate(&mut self, sk: &PairSketch, q: &str, u: &str) -> Option<u64> {
            let (q, u) = self.ids(q, u);
            sk.estimate(q, u)
        }

        fn query(&self, e: &SketchEntry) -> &str {
            self.queries.resolve(e.query.0)
        }
    }

    #[test]
    fn exact_when_under_capacity() {
        let mut v = Vocab::default();
        let mut sk = PairSketch::new(8);
        v.offer(&mut sk, "a", "x", 5);
        v.offer(&mut sk, "b", "y", 3);
        v.offer(&mut sk, "a", "x", 2);
        assert_eq!(v.estimate(&sk, "a", "x"), Some(7));
        assert_eq!(v.estimate(&sk, "b", "y"), Some(3));
        assert_eq!(sk.error_bound(), 0);
        assert_eq!(sk.total_weight(), 10);
    }

    #[test]
    fn eviction_underestimates_within_bound() {
        let mut v = Vocab::default();
        let mut sk = PairSketch::new(2);
        v.offer(&mut sk, "a", "x", 10);
        v.offer(&mut sk, "b", "y", 4);
        v.offer(&mut sk, "c", "z", 6); // evicts: decrement all by 4
        assert!(sk.len() <= 2);
        let err = sk.error_bound();
        assert!(err <= sk.total_weight() / 3, "MG bound N/(k+1)");
        // heavy key survives with estimate in [true - err, true]
        let est = v.estimate(&sk, "a", "x").expect("heavy key survives");
        assert!(est <= 10 && est + err >= 10);
    }

    #[test]
    fn absorbed_light_key_still_bounded() {
        let mut v = Vocab::default();
        let mut sk = PairSketch::new(1);
        v.offer(&mut sk, "a", "x", 5);
        v.offer(&mut sk, "b", "y", 2); // absorbed entirely (2 <= min 5)
        assert_eq!(v.estimate(&sk, "b", "y"), None);
        assert!(sk.error_bound() >= 2, "absorbed weight counts toward the bound");
        let est = v.estimate(&sk, "a", "x").unwrap();
        assert!(est + sk.error_bound() >= 5);
    }

    #[test]
    fn merge_matches_single_stream_guarantees() {
        let mut v = Vocab::default();
        let stream: Vec<(&str, u64)> =
            vec![("a", 9), ("b", 2), ("c", 7), ("a", 4), ("d", 1), ("c", 3), ("e", 2), ("a", 5)];
        let mut whole = PairSketch::new(3);
        let mut left = PairSketch::new(3);
        let mut right = PairSketch::new(3);
        for (i, &(q, w)) in stream.iter().enumerate() {
            v.offer(&mut whole, q, "u", w);
            if i % 2 == 0 {
                v.offer(&mut left, q, "u", w);
            } else {
                v.offer(&mut right, q, "u", w);
            }
        }
        left.merge(&right);
        assert_eq!(left.total_weight(), whole.total_weight());
        assert!(left.len() <= 3);
        assert!(left.error_bound() <= left.total_weight() / 4, "merged bound N/(k+1)");
        // per-key guarantee on the merged sketch
        let true_a: u64 = stream.iter().filter(|&&(q, _)| q == "a").map(|&(_, w)| w).sum();
        let est_a = v.estimate(&left, "a", "u").unwrap_or(0);
        assert!(est_a <= true_a && est_a + left.error_bound() >= true_a);
    }

    #[test]
    #[should_panic(expected = "equal capacity")]
    fn merge_requires_equal_capacity() {
        let a = PairSketch::new(2);
        let mut b = PairSketch::new(3);
        b.merge(&a);
    }

    #[test]
    fn entries_are_deterministically_sorted() {
        let mut v = Vocab::default();
        let mut sk = PairSketch::new(8);
        v.offer(&mut sk, "b", "y", 3);
        v.offer(&mut sk, "a", "x", 3);
        v.offer(&mut sk, "c", "z", 9);
        let e = sk.entries();
        assert_eq!(v.query(&e[0]), "c");
        assert_eq!(v.query(&e[1]), "b", "ties break by query id (first occurrence)");
        assert_eq!(v.query(&e[2]), "a");
    }

    #[test]
    fn candidates_are_complete_above_threshold() {
        // tight capacity so real evictions happen
        let mut v = Vocab::default();
        let mut sk = PairSketch::new(3);
        let counts: &[(&str, u64)] =
            &[("hot", 40), ("warm", 20), ("a", 3), ("b", 2), ("c", 3), ("d", 1), ("hot", 10)];
        for &(q, w) in counts {
            v.offer(&mut sk, q, "u", w);
        }
        let cands = sk.candidates_at_least(20.0);
        assert!(cands.iter().any(|e| v.query(e) == "hot"));
        assert!(cands.iter().any(|e| v.query(e) == "warm"));
    }

    #[test]
    fn sketch_mining_equals_exact_mining() {
        let mut b = SearchLogBuilder::new();
        let tuples: &[(&str, &str, &str, u64)] = &[
            ("u1", "google", "google.com", 9),
            ("u2", "google", "google.com", 8),
            ("u1", "weather", "weather.com", 4),
            ("u3", "weather", "weather.com", 3),
            ("u2", "cars", "kbb.com", 1),
            ("u3", "cars", "kbb.com", 1),
            ("u1", "news", "cnn.com", 2),
            ("u2", "news", "cnn.com", 1),
            ("u3", "maps", "maps.com", 1),
            ("u1", "maps", "maps.com", 1),
        ];
        for &(user, q, u, c) in tuples {
            b.add(user, q, u, c).unwrap();
        }
        let log = b.build();
        // the builder interned in tuple order, so offering the tuples
        // through the log's ids is the stream the sketch would have seen
        let mut sk = PairSketch::new(4);
        for &(_, q, u, c) in tuples {
            let q = QueryId(log.queries().get(q).unwrap());
            let u = UrlId(log.urls().get(u).unwrap());
            sk.offer(q, u, c);
        }
        assert!(sk.error_bound() > 0, "capacity 4 < 5 pairs: the inexact path runs");
        for s in [0.05, 0.1, 0.25, 0.5] {
            let exact = frequent_pairs(&log, s);
            let mined = sketch_frequent_pairs(&log, &sk, s);
            assert_eq!(mined, exact, "support {s}");
        }
    }

    #[test]
    #[should_panic(expected = "capacity must be at least 1")]
    fn zero_capacity_rejected() {
        let _ = PairSketch::new(0);
    }
}
