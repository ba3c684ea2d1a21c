//! The aggregated, immutable search log.
//!
//! [`SearchLog`] stores the triplet histogram `c_ijk` twice, in CSR form:
//! once grouped by *pair* (needed by the multinomial sampler and the
//! pair histogram `c_ij`) and once grouped by *user* (the user logs
//! `A_k` of Definition 1, needed by the privacy-constraint builder).
//! Both views are filled once, by [`SearchLog::from_sorted_triplets`],
//! and never mutated: [`SearchLogBuilder`] aggregates raw tuples and
//! hands it its sorted triplets, and preprocessing produces a fresh log.
//!
//! A log owns its id space, a [`Vocabulary`]. Its interners sit behind
//! [`Arc`]: every log derived from another one (preprocessing,
//! sampling, mechanism outputs) shares them instead of copying them.

use std::sync::Arc;

use crate::error::LogError;
use crate::ids::{IdMap, IdPair, PairId, QueryId, UrlId, UserId};
use crate::intern::Interner;
use crate::record::LogRecord;
use crate::vocab::Vocabulary;

/// An immutable aggregated search log `D`.
#[derive(Debug, Clone)]
pub struct SearchLog {
    vocab: Vocabulary,
    pair_total: Vec<u64>,

    // triplets grouped by pair (users sorted within each pair)
    pair_off: Vec<usize>,
    pair_holder_user: Vec<UserId>,
    pair_holder_count: Vec<u64>,

    // triplets grouped by user (pairs sorted within each user)
    user_off: Vec<usize>,
    user_pair: Vec<PairId>,
    user_count: Vec<u64>,

    size: u64,
}

/// One triplet `(s_k, c_ijk)` seen from a pair's holder list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TripletRef {
    /// The holder `s_k`.
    pub user: UserId,
    /// The count `c_ijk`.
    pub count: u64,
}

/// One entry `(pair, c_ijk)` of a user log `A_k`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UserLogRef {
    /// The pair held by the user.
    pub pair: PairId,
    /// The count `c_ijk`.
    pub count: u64,
}

/// A pair together with its total count, convenient for iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PairEntry {
    /// The pair id.
    pub pair: PairId,
    /// The total count `c_ij`.
    pub total: u64,
}

impl SearchLog {
    /// Number of distinct query–url pairs.
    pub fn n_pairs(&self) -> usize {
        self.vocab.pairs.len()
    }

    /// Number of interned users (including users whose log is empty,
    /// e.g. after preprocessing removed all their pairs).
    pub fn n_users(&self) -> usize {
        self.vocab.users.len()
    }

    /// Number of *non-empty* user logs (rows that generate privacy
    /// constraints).
    pub fn n_user_logs(&self) -> usize {
        (0..self.n_users()).filter(|&k| self.user_off[k] < self.user_off[k + 1]).count()
    }

    /// `|D|`: the size of the log, `Σ_ij c_ij` (total click volume).
    pub fn size(&self) -> u64 {
        self.size
    }

    /// Total number of stored triplets `(s_k, q_i, u_j)`.
    pub fn n_triplets(&self) -> usize {
        self.pair_holder_user.len()
    }

    /// The `(query, url)` key of a pair.
    pub fn pair_key(&self, p: PairId) -> (QueryId, UrlId) {
        self.vocab.pairs.key(p)
    }

    /// Total count `c_ij` of a pair.
    pub fn pair_total(&self, p: PairId) -> u64 {
        self.pair_total[p.index()]
    }

    /// Look up a pair id by its `(query, url)` key.
    pub fn pair_id(&self, q: QueryId, u: UrlId) -> Option<PairId> {
        self.vocab.pairs.get(q, u)
    }

    /// Iterate all pairs with their totals.
    pub fn pairs(&self) -> impl Iterator<Item = PairEntry> + '_ {
        self.pair_total
            .iter()
            .enumerate()
            .map(|(i, &total)| PairEntry { pair: PairId::from_index(i), total })
    }

    /// The holders of a pair: every `(s_k, c_ijk)` with `c_ijk > 0`,
    /// sorted by user id.
    pub fn holders(&self, p: PairId) -> impl Iterator<Item = TripletRef> + '_ {
        let lo = self.pair_off[p.index()];
        let hi = self.pair_off[p.index() + 1];
        self.pair_holder_user[lo..hi]
            .iter()
            .zip(&self.pair_holder_count[lo..hi])
            .map(|(&user, &count)| TripletRef { user, count })
    }

    /// Number of distinct holders of a pair.
    pub fn n_holders(&self, p: PairId) -> usize {
        self.pair_off[p.index() + 1] - self.pair_off[p.index()]
    }

    /// The user log `A_k`: every `(pair, c_ijk)` of user `k`, sorted by
    /// pair id. Empty for users with no surviving pairs.
    pub fn user_log(&self, k: UserId) -> impl Iterator<Item = UserLogRef> + '_ {
        let lo = self.user_off[k.index()];
        let hi = self.user_off[k.index() + 1];
        self.user_pair[lo..hi]
            .iter()
            .zip(&self.user_count[lo..hi])
            .map(|(&pair, &count)| UserLogRef { pair, count })
    }

    /// Length of user `k`'s log (number of distinct pairs they hold).
    pub fn user_log_len(&self, k: UserId) -> usize {
        self.user_off[k.index() + 1] - self.user_off[k.index()]
    }

    /// Ids of users with non-empty logs, ascending.
    pub fn users_with_logs(&self) -> impl Iterator<Item = UserId> + '_ {
        (0..self.n_users())
            .filter(|&k| self.user_off[k] < self.user_off[k + 1])
            .map(UserId::from_index)
    }

    /// All triplets as [`LogRecord`]s, pair-major.
    pub fn records(&self) -> impl Iterator<Item = LogRecord> + '_ {
        (0..self.n_pairs()).flat_map(move |pi| {
            let p = PairId::from_index(pi);
            let (q, u) = self.pair_key(p);
            self.holders(p).map(move |t| LogRecord {
                user: t.user,
                query: q,
                url: u,
                count: t.count,
            })
        })
    }

    /// The count `c_ijk` of a specific triplet, 0 if absent.
    pub fn triplet_count(&self, p: PairId, k: UserId) -> u64 {
        let lo = self.pair_off[p.index()];
        let hi = self.pair_off[p.index() + 1];
        let slice = &self.pair_holder_user[lo..hi];
        match slice.binary_search(&k) {
            Ok(i) => self.pair_holder_count[lo + i],
            Err(_) => 0,
        }
    }

    /// User interner (ids ↔ pseudonymous strings).
    pub fn users(&self) -> &Interner {
        &self.vocab.users
    }

    /// Query interner.
    pub fn queries(&self) -> &Interner {
        &self.vocab.queries
    }

    /// Url interner.
    pub fn urls(&self) -> &Interner {
        &self.vocab.urls
    }

    /// Keep only the pairs for which `keep` is true, producing a new log
    /// with densely re-numbered pair ids. Returns the new log and the
    /// mapping `old PairId -> new PairId` (`None` when dropped).
    ///
    /// Interners are shared, so user/query/url ids remain stable.
    pub fn retain_pairs(&self, keep: &[bool]) -> (SearchLog, Vec<Option<PairId>>) {
        assert_eq!(keep.len(), self.n_pairs(), "keep mask must cover every pair");
        let mut mapping: Vec<Option<PairId>> = vec![None; self.n_pairs()];
        let mut vocab = self.vocab.share_strings();
        let mut triplets = Vec::new();
        for (i, &k) in keep.iter().enumerate() {
            if !k {
                continue;
            }
            let p = PairId::from_index(i);
            let (q, u) = self.pair_key(p);
            let new = vocab.pairs.intern(q, u);
            mapping[i] = Some(new);
            triplets.extend(self.holders(p).map(|t| (new, t.user, t.count)));
        }
        // kept pairs keep their relative order and holders stay sorted
        // by user, so the triplets are already in (pair, user) order
        (SearchLog::from_sorted_triplets(vocab, triplets), mapping)
    }

    /// Build a log from triplets already in strictly ascending
    /// `(pair, user)` order: the CSR arrays are filled in one pass, with
    /// no aggregation maps. Every build of a log ends here.
    ///
    /// Every id must lie inside `vocab` and every count must be
    /// positive. The log takes `vocab` as its id space.
    ///
    /// # Panics
    /// On unsorted or duplicate triplets, out-of-range ids or zero
    /// counts.
    pub fn from_sorted_triplets(
        vocab: Vocabulary,
        triplets: Vec<(PairId, UserId, u64)>,
    ) -> SearchLog {
        for &(q, u) in vocab.pairs.keys() {
            assert!(q.index() < vocab.queries.len(), "query id outside vocabulary");
            assert!(u.index() < vocab.urls.len(), "url id outside vocabulary");
        }
        let n_pairs = vocab.pairs.len();
        let n_users = vocab.users.len();
        let mut pair_total = vec![0u64; n_pairs];
        let mut pair_off = vec![0usize; n_pairs + 1];
        let mut user_off = vec![0usize; n_users + 1];
        let mut pair_holder_user = Vec::with_capacity(triplets.len());
        let mut pair_holder_count = Vec::with_capacity(triplets.len());
        let mut prev: Option<(PairId, UserId)> = None;
        for &(p, u, c) in &triplets {
            assert!(prev < Some((p, u)), "triplets must be strictly sorted by (pair, user)");
            assert!(p.index() < n_pairs, "pair id outside the pair table");
            assert!(u.index() < n_users, "user id outside vocabulary");
            assert!(c > 0, "zero-count triplet");
            prev = Some((p, u));
            pair_total[p.index()] += c;
            pair_off[p.index() + 1] += 1;
            user_off[u.index() + 1] += 1;
            pair_holder_user.push(u);
            pair_holder_count.push(c);
        }
        for i in 0..n_pairs {
            pair_off[i + 1] += pair_off[i];
        }

        // user-major view
        for i in 0..n_users {
            user_off[i + 1] += user_off[i];
        }
        let mut cursor = user_off.clone();
        let mut user_pair = vec![PairId(0); triplets.len()];
        let mut user_count = vec![0u64; triplets.len()];
        for &(p, u, c) in &triplets {
            let at = cursor[u.index()];
            user_pair[at] = p;
            user_count[at] = c;
            cursor[u.index()] += 1;
        }
        // pairs are already visited in ascending pair order, so each user
        // row comes out sorted by pair id.

        let size = pair_total.iter().sum();

        SearchLog {
            vocab,
            pair_total,
            pair_off,
            pair_holder_user,
            pair_holder_count,
            user_off,
            user_pair,
            user_count,
            size,
        }
    }
}

/// Incremental builder aggregating duplicate `(user, query, url)` tuples.
#[derive(Debug, Default)]
pub struct SearchLogBuilder {
    vocab: Vocabulary,
    // (pair, user) -> count
    triplets: IdMap<u64>,
}

impl SearchLogBuilder {
    /// New empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builder that shares the vocabulary (interners) of an existing log,
    /// for constructing outputs over the same id space. The interners
    /// are shared, not copied; a later string [`add`](Self::add) copies
    /// one only to intern a string it does not hold yet. Pairs are
    /// numbered afresh, in the order this builder first sees them.
    pub fn with_vocabulary_of(log: &SearchLog) -> Self {
        SearchLogBuilder { vocab: log.vocab.share_strings(), triplets: IdMap::default() }
    }

    /// Add one tuple by strings, interning as needed. Duplicate tuples
    /// accumulate their counts.
    pub fn add(&mut self, user: &str, query: &str, url: &str, count: u64) -> Result<(), LogError> {
        if count == 0 {
            return Err(LogError::ZeroCount { line: 0 });
        }
        let user = UserId(intern_shared(&mut self.vocab.users, user));
        let query = QueryId(intern_shared(&mut self.vocab.queries, query));
        let url = UrlId(intern_shared(&mut self.vocab.urls, url));
        self.push(user, query, url, count);
        Ok(())
    }

    /// Add one tuple by pre-interned ids. Ids must come from this
    /// builder's vocabulary (e.g. via [`SearchLogBuilder::with_vocabulary_of`]).
    pub fn add_record(&mut self, r: LogRecord) -> Result<(), LogError> {
        if r.count == 0 {
            return Err(LogError::ZeroCount { line: 0 });
        }
        assert!(r.user.index() < self.vocab.users.len(), "user id outside vocabulary");
        assert!(r.query.index() < self.vocab.queries.len(), "query id outside vocabulary");
        assert!(r.url.index() < self.vocab.urls.len(), "url id outside vocabulary");
        self.push(r.user, r.query, r.url, r.count);
        Ok(())
    }

    fn push(&mut self, user: UserId, query: QueryId, url: UrlId, count: u64) {
        let pair = self.vocab.pairs.intern(query, url);
        *self.triplets.entry(IdPair(pair.0, user.0)).or_insert(0) += count;
    }

    /// Finalize into an immutable [`SearchLog`].
    pub fn build(self) -> SearchLog {
        let mut keyed: Vec<(IdPair, u64)> = self.triplets.into_iter().collect();
        keyed.sort_unstable_by_key(|&(key, _)| key);
        let triplets =
            keyed.into_iter().map(|(IdPair(p, u), c)| (PairId(p), UserId(u), c)).collect();
        SearchLog::from_sorted_triplets(self.vocab, triplets)
    }
}

/// Intern `s` into a possibly shared interner. A shared interner is
/// copied only when `s` is new to it: a builder over another log's
/// vocabulary that adds strings the vocabulary already holds never
/// copies it.
fn intern_shared(interner: &mut Arc<Interner>, s: &str) -> u32 {
    if let Some(owned) = Arc::get_mut(interner) {
        return owned.intern(s);
    }
    match interner.get(s) {
        Some(id) => id,
        None => Arc::make_mut(interner).intern(s),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The example log from Table 1 / Figure 1 of the paper.
    pub(crate) fn figure1_log() -> SearchLog {
        let mut b = SearchLogBuilder::new();
        b.add("081", "pregnancy test nyc", "medicinenet.com", 2).unwrap();
        b.add("081", "book", "amazon.com", 3).unwrap();
        b.add("081", "google", "google.com", 15).unwrap();
        b.add("082", "google", "google.com", 7).unwrap();
        b.add("082", "diabetes medecine", "walmart.com", 1).unwrap();
        b.add("082", "car price", "kbb.com", 2).unwrap();
        b.add("083", "car price", "kbb.com", 5).unwrap();
        b.add("083", "google", "google.com", 17).unwrap();
        b.add("083", "book", "amazon.com", 1).unwrap();
        b.build()
    }

    #[test]
    fn figure1_totals() {
        let log = figure1_log();
        assert_eq!(log.n_pairs(), 5);
        assert_eq!(log.n_users(), 3);
        assert_eq!(log.n_user_logs(), 3);
        assert_eq!(log.size(), 2 + 3 + 15 + 7 + 1 + 2 + 5 + 17 + 1); // 53
        let google = log
            .pair_id(
                QueryId(log.queries().get("google").unwrap()),
                UrlId(log.urls().get("google.com").unwrap()),
            )
            .unwrap();
        assert_eq!(log.pair_total(google), 39);
        assert_eq!(log.n_holders(google), 3);
    }

    #[test]
    fn duplicate_tuples_aggregate() {
        let mut b = SearchLogBuilder::new();
        b.add("u1", "q", "url", 2).unwrap();
        b.add("u1", "q", "url", 3).unwrap();
        let log = b.build();
        assert_eq!(log.n_pairs(), 1);
        assert_eq!(log.pair_total(PairId(0)), 5);
        assert_eq!(log.triplet_count(PairId(0), UserId(0)), 5);
    }

    #[test]
    fn zero_count_rejected() {
        let mut b = SearchLogBuilder::new();
        assert!(b.add("u", "q", "l", 0).is_err());
    }

    #[test]
    fn user_log_matches_pair_view() {
        let log = figure1_log();
        // Reconstruct triplets from both views; they must agree.
        let mut from_pairs: Vec<(PairId, UserId, u64)> = vec![];
        for pe in log.pairs() {
            for t in log.holders(pe.pair) {
                from_pairs.push((pe.pair, t.user, t.count));
            }
        }
        let mut from_users: Vec<(PairId, UserId, u64)> = vec![];
        for k in log.users_with_logs() {
            for e in log.user_log(k) {
                from_users.push((e.pair, k, e.count));
            }
        }
        from_pairs.sort_unstable();
        from_users.sort_unstable();
        assert_eq!(from_pairs, from_users);
    }

    #[test]
    fn holders_sorted_by_user() {
        let log = figure1_log();
        for pe in log.pairs() {
            let users: Vec<_> = log.holders(pe.pair).map(|t| t.user).collect();
            let mut sorted = users.clone();
            sorted.sort_unstable();
            assert_eq!(users, sorted);
        }
    }

    #[test]
    fn triplet_count_absent_is_zero() {
        let log = figure1_log();
        let preg = PairId(0); // first inserted
                              // user 083 never searched the first pair of user 081's log
        let u083 = UserId(log.users().get("083").unwrap());
        assert_eq!(log.triplet_count(preg, u083), 0);
    }

    #[test]
    fn retain_pairs_renumbers_densely() {
        let log = figure1_log();
        let mut keep = vec![true; log.n_pairs()];
        keep[0] = false;
        keep[3] = false;
        let (sub, mapping) = log.retain_pairs(&keep);
        assert_eq!(sub.n_pairs(), 3);
        assert_eq!(mapping.iter().filter(|m| m.is_some()).count(), 3);
        // sizes shrink by the dropped totals
        let dropped: u64 = [0usize, 3].iter().map(|&i| log.pair_total(PairId::from_index(i))).sum();
        assert_eq!(sub.size(), log.size() - dropped);
        // vocabulary is preserved
        assert_eq!(sub.n_users(), log.n_users());
        assert_eq!(sub.queries().len(), log.queries().len());
    }

    #[test]
    fn records_roundtrip_through_builder() {
        let log = figure1_log();
        let mut b = SearchLogBuilder::with_vocabulary_of(&log);
        for r in log.records() {
            b.add_record(r).unwrap();
        }
        let log2 = b.build();
        let mut r1: Vec<_> = log.records().collect();
        let mut r2: Vec<_> = log2.records().collect();
        let key = |r: &LogRecord| (r.query.0, r.url.0, r.user.0, r.count);
        r1.sort_unstable_by_key(key);
        r2.sort_unstable_by_key(key);
        assert_eq!(r1, r2);
    }

    #[test]
    fn shared_vocabulary_is_copied_only_for_a_new_string() {
        let log = figure1_log();
        let mut b = SearchLogBuilder::with_vocabulary_of(&log);
        for r in log.records() {
            let user = log.users().resolve(r.user.0);
            b.add(user, log.queries().resolve(r.query.0), log.urls().resolve(r.url.0), r.count)
                .unwrap();
        }
        assert!(Arc::ptr_eq(&b.vocab.users, &log.vocab.users), "known users: no copy");
        assert!(Arc::ptr_eq(&b.vocab.queries, &log.vocab.queries), "known queries: no copy");
        assert!(Arc::ptr_eq(&b.vocab.urls, &log.vocab.urls), "known urls: no copy");
        let u0 = log.users().resolve(0);
        b.add(u0, "a query new to the log", log.urls().resolve(0), 1).unwrap();
        assert!(
            !Arc::ptr_eq(&b.vocab.queries, &log.vocab.queries),
            "a new query copies its interner"
        );
        assert!(
            Arc::ptr_eq(&b.vocab.users, &log.vocab.users)
                && Arc::ptr_eq(&b.vocab.urls, &log.vocab.urls)
        );
        assert_eq!(b.vocab.queries.len(), log.queries().len() + 1);
        let out = b.build();
        let key = |r: &LogRecord| (r.query.0, r.url.0, r.user.0, r.count);
        let mut got: Vec<_> = out.records().map(|r| key(&r)).collect();
        let mut want: Vec<_> = log.records().map(|r| key(&r)).collect();
        want.push((log.queries().len() as u32, 0, 0, 1));
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want, "ids are the shared vocabulary's");
    }

    #[test]
    fn from_sorted_triplets_equals_builder() {
        let log = figure1_log();
        let triplets: Vec<_> = log
            .pairs()
            .flat_map(|pe| log.holders(pe.pair).map(move |t| (pe.pair, t.user, t.count)))
            .collect();
        let rebuilt = SearchLog::from_sorted_triplets(log.vocab.clone(), triplets);
        assert_eq!(rebuilt.records().collect::<Vec<_>>(), log.records().collect::<Vec<_>>());
        for k in log.users_with_logs() {
            assert_eq!(
                rebuilt.user_log(k).collect::<Vec<_>>(),
                log.user_log(k).collect::<Vec<_>>()
            );
        }
        assert_eq!(rebuilt.size(), log.size());
        assert!(Arc::ptr_eq(&rebuilt.vocab.users, &log.vocab.users), "strings are shared");
    }

    #[test]
    #[should_panic(expected = "strictly sorted")]
    fn from_sorted_triplets_rejects_unsorted_input() {
        let log = figure1_log();
        let _ = SearchLog::from_sorted_triplets(
            log.vocab.clone(),
            vec![(PairId(0), UserId(1), 1), (PairId(0), UserId(0), 1)],
        );
    }

    #[test]
    #[should_panic(expected = "url id outside vocabulary")]
    fn from_sorted_triplets_rejects_a_pair_key_outside_the_vocabulary() {
        let log = figure1_log();
        let mut vocab = log.vocab.share_strings();
        vocab.pairs.intern(QueryId(0), UrlId(log.urls().len() as u32));
        let _ = SearchLog::from_sorted_triplets(vocab, Vec::new());
    }

    #[test]
    fn derived_logs_share_the_vocabulary() {
        let log = figure1_log();
        let (sub, _) = log.retain_pairs(&vec![true; log.n_pairs()]);
        assert!(Arc::ptr_eq(&sub.vocab.queries, &log.vocab.queries));
        assert!(Arc::ptr_eq(
            &SearchLogBuilder::with_vocabulary_of(&log).build().vocab.urls,
            &log.vocab.urls
        ));
    }

    #[test]
    #[should_panic(expected = "user id outside vocabulary")]
    fn add_record_requires_vocabulary() {
        let mut b = SearchLogBuilder::new();
        let _ =
            b.add_record(LogRecord { user: UserId(0), query: QueryId(0), url: UrlId(0), count: 1 });
    }
}
