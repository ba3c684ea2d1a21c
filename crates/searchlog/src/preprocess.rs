//! Condition-1 preprocessing: removal of *unique* query–url pairs.
//!
//! Theorem 1 / Condition 1 of the paper: if some user holds a pair's
//! entire count (`∃k: c_ijk = c_ij`), its output count must be 0 —
//! otherwise the probability of sampling that user (Eq. 2) cannot be
//! bounded. Since stored counts are strictly positive, a pair satisfies
//! the condition exactly when it has a *single holder*, so preprocessing
//! removes every pair held by one user only.
//!
//! Production logs never pass through [`preprocess`]: the `dpsan-stream`
//! ingest drain drops single-holder pairs before it builds a log, and
//! the mechanisms' own pass is then a clone. [`preprocess`] works on a
//! built log, from its holder lists, and is the independent oracle the
//! drain is tested against (and the path `repro`'s synthetic logs take).

use crate::ids::PairId;
use crate::log::SearchLog;

/// Outcome of [`preprocess`].
#[derive(Debug, Clone)]
pub struct PreprocessReport {
    /// Number of pairs removed (held entirely by a single user).
    pub removed_pairs: usize,
    /// Click volume removed, `Σ c_ij` over removed pairs.
    pub removed_count: u64,
    /// Users whose log became empty (they no longer generate privacy
    /// constraints).
    pub emptied_users: usize,
}

/// Remove all unique pairs from `log`, returning the reduced log and a
/// report. Idempotent: preprocessing a preprocessed log is the identity
/// whenever no pair became single-holder (holder sets are untouched, so
/// that is always the case).
///
/// A log with no unique pair is returned as a clone: rebuilding it with
/// every pair kept would number the pairs in the same order and fill the
/// same arrays.
pub fn preprocess(log: &SearchLog) -> (SearchLog, PreprocessReport) {
    let keep: Vec<bool> =
        (0..log.n_pairs()).map(|i| log.n_holders(PairId::from_index(i)) > 1).collect();

    let removed_pairs = keep.iter().filter(|&&k| !k).count();
    if removed_pairs == 0 {
        let report = PreprocessReport { removed_pairs, removed_count: 0, emptied_users: 0 };
        return (log.clone(), report);
    }
    let removed_count: u64 = keep
        .iter()
        .enumerate()
        .filter(|(_, &k)| !k)
        .map(|(i, _)| log.pair_total(PairId::from_index(i)))
        .sum();

    let before_users = log.n_user_logs();
    let (reduced, _) = log.retain_pairs(&keep);
    let emptied_users = before_users - reduced.n_user_logs();

    (reduced, PreprocessReport { removed_pairs, removed_count, emptied_users })
}

/// Check whether a log is already preprocessed (no single-holder pairs).
pub fn is_preprocessed(log: &SearchLog) -> bool {
    (0..log.n_pairs()).all(|i| log.n_holders(PairId::from_index(i)) > 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::UserId;
    use crate::log::SearchLogBuilder;

    fn sample_log() -> SearchLog {
        let mut b = SearchLogBuilder::new();
        // shared pair: held by u1, u2
        b.add("u1", "google", "google.com", 5).unwrap();
        b.add("u2", "google", "google.com", 3).unwrap();
        // unique pair of u1
        b.add("u1", "1 washington ave", "maps.google.com", 4).unwrap();
        // unique pair of u3 (their only pair -> u3 becomes empty)
        b.add("u3", "rare disease", "medicinenet.com", 1).unwrap();
        b.build()
    }

    #[test]
    fn removes_single_holder_pairs() {
        let log = sample_log();
        let (pre, rep) = preprocess(&log);
        assert_eq!(rep.removed_pairs, 2);
        assert_eq!(rep.removed_count, 5);
        assert_eq!(pre.n_pairs(), 1);
        assert_eq!(pre.size(), 8);
        assert!(is_preprocessed(&pre));
    }

    #[test]
    fn reports_emptied_users() {
        let log = sample_log();
        let (pre, rep) = preprocess(&log);
        assert_eq!(rep.emptied_users, 1);
        assert_eq!(pre.n_user_logs(), 2);
        // interner still knows u3
        assert_eq!(pre.n_users(), 3);
    }

    #[test]
    fn idempotent() {
        let log = sample_log();
        let (pre, _) = preprocess(&log);
        let (pre2, rep2) = preprocess(&pre);
        assert_eq!(rep2.removed_pairs, 0);
        assert_eq!(rep2.removed_count, 0);
        assert_eq!(rep2.emptied_users, 0);
        assert_same_log(&pre2, &pre);
        // ...which is what a rebuild keeping every pair yields
        let (rebuilt, _) = pre.retain_pairs(&vec![true; pre.n_pairs()]);
        assert_same_log(&rebuilt, &pre);
    }

    /// Pair for pair and holder for holder, and user log for user log.
    fn assert_same_log(a: &SearchLog, b: &SearchLog) {
        assert_eq!(a.size(), b.size());
        assert_eq!(a.n_pairs(), b.n_pairs());
        assert_eq!(a.n_users(), b.n_users());
        assert_eq!(a.n_user_logs(), b.n_user_logs());
        for i in 0..b.n_pairs() {
            let p = PairId::from_index(i);
            assert_eq!(a.pair_key(p), b.pair_key(p));
            assert_eq!(a.pair_total(p), b.pair_total(p));
            assert!(a.holders(p).eq(b.holders(p)));
        }
        for k in 0..b.n_users() {
            let k = UserId::from_index(k);
            assert!(a.user_log(k).eq(b.user_log(k)));
        }
    }

    #[test]
    fn empty_log_preprocesses_to_empty() {
        let log = SearchLogBuilder::new().build();
        let (pre, rep) = preprocess(&log);
        assert_eq!(pre.n_pairs(), 0);
        assert_eq!(rep.removed_pairs, 0);
        assert!(is_preprocessed(&pre));
    }
}
