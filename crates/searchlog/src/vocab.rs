//! The id space of a log: one [`Vocabulary`] of three interners and a
//! [`PairTable`].
//!
//! Every build of a log — [`SearchLogBuilder`](crate::SearchLogBuilder),
//! [`SearchLog::retain_pairs`](crate::SearchLog::retain_pairs) and the
//! `dpsan-stream` ingest session — numbers pairs through
//! [`PairTable::intern`], the one place a pair id is assigned: a
//! `(query, url)` key gets the next id on its first appearance. So two
//! builds that see the same records in the same order agree on every id,
//! which is what the release byte-identity gates rest on.

use std::sync::Arc;

use crate::ids::{id_map_with_capacity, IdMap, IdPair, PairId, QueryId, UrlId};
use crate::intern::Interner;

/// The pair table: `(query, url)` keys in pair-id order, and the index
/// back from key to id. It cannot hold a key twice.
#[derive(Debug, Clone, Default)]
pub struct PairTable {
    keys: Vec<(QueryId, UrlId)>,
    // (query, url) -> pair
    index: IdMap<PairId>,
}

impl PairTable {
    /// An empty table with room for `n` pairs.
    pub fn with_capacity(n: usize) -> Self {
        PairTable { keys: Vec::with_capacity(n), index: id_map_with_capacity(n) }
    }

    /// The id of `(query, url)`, assigning the next one if the key is new.
    #[inline]
    pub fn intern(&mut self, query: QueryId, url: UrlId) -> PairId {
        let next = PairId::from_index(self.keys.len());
        *self.index.entry(IdPair(query.0, url.0)).or_insert_with(|| {
            self.keys.push((query, url));
            next
        })
    }

    /// Look up a pair id by its key, without assigning one.
    pub fn get(&self, query: QueryId, url: UrlId) -> Option<PairId> {
        self.index.get(&IdPair(query.0, url.0)).copied()
    }

    /// The `(query, url)` key of pair `p`.
    pub fn key(&self, p: PairId) -> (QueryId, UrlId) {
        self.keys[p.index()]
    }

    /// Every key, in pair-id order.
    pub fn keys(&self) -> &[(QueryId, UrlId)] {
        &self.keys
    }

    /// Number of pairs.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the table holds no pair.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }
}

/// The id space of a log: the user, query and url interners and the
/// pair table over them.
///
/// The interners sit behind [`Arc`]: every log derived from another one
/// (preprocessing, sampling, mechanism outputs) shares its strings
/// instead of copying them, and a writer copies an interner only when it
/// must add a string while another log still holds it.
#[derive(Debug, Clone, Default)]
pub struct Vocabulary {
    /// User strings (`s_k`).
    pub users: Arc<Interner>,
    /// Query strings (`q_i`).
    pub queries: Arc<Interner>,
    /// Url strings (`u_j`).
    pub urls: Arc<Interner>,
    /// The `(query, url)` pairs, numbered by first appearance.
    pub pairs: PairTable,
}

impl Vocabulary {
    /// The same strings with an empty pair table: the id space of a log
    /// over the same users, queries and urls whose pairs are numbered
    /// afresh.
    pub fn share_strings(&self) -> Vocabulary {
        Vocabulary {
            users: Arc::clone(&self.users),
            queries: Arc::clone(&self.queries),
            urls: Arc::clone(&self.urls),
            pairs: PairTable::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pairs_are_numbered_by_first_appearance() {
        let mut t = PairTable::default();
        assert_eq!(t.intern(QueryId(3), UrlId(1)), PairId(0));
        assert_eq!(t.intern(QueryId(0), UrlId(0)), PairId(1));
        assert_eq!(t.intern(QueryId(3), UrlId(1)), PairId(0), "a known key keeps its id");
        assert_eq!(t.len(), 2);
        assert_eq!(t.keys(), &[(QueryId(3), UrlId(1)), (QueryId(0), UrlId(0))]);
        assert_eq!(t.get(QueryId(0), UrlId(0)), Some(PairId(1)));
        assert_eq!(t.get(QueryId(0), UrlId(1)), None);
        assert_eq!(t.key(PairId(1)), (QueryId(0), UrlId(0)));
    }
}
