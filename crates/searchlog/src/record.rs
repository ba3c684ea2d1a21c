//! A single aggregated search-log tuple.

use crate::ids::{QueryId, UrlId, UserId};

/// One tuple `[s_k, q_i, u_j, c_ijk]` of a search log (Definition 1).
///
/// `count` is the click-through count of the pair `(query, url)` for
/// `user`, i.e. `c_ijk`; it is always `>= 1` in a valid log.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LogRecord {
    /// Pseudonymous user id `s_k`.
    pub user: UserId,
    /// Query id `q_i`.
    pub query: QueryId,
    /// Url id `u_j`.
    pub url: UrlId,
    /// Click-through count `c_ijk` (strictly positive).
    pub count: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_is_small_and_copy() {
        // The record is in the hot path of builders and samplers; keep it
        // within two machine words of payload + count.
        assert!(std::mem::size_of::<LogRecord>() <= 24);
        let r = LogRecord { user: UserId(1), query: QueryId(2), url: UrlId(3), count: 4 };
        let r2 = r; // Copy
        assert_eq!(r, r2);
    }
}
