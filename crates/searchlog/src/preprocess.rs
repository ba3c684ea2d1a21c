//! Condition-1 preprocessing: removal of *unique* query–url pairs.
//!
//! Theorem 1 / Condition 1 of the paper: if some user holds a pair's
//! entire count (`∃k: c_ijk = c_ij`), its output count must be 0 —
//! otherwise the probability of sampling that user (Eq. 2) cannot be
//! bounded. Since stored counts are strictly positive, a pair satisfies
//! the condition exactly when it has a *single holder*, so preprocessing
//! removes every pair held by one user only.

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
pub fn preprocess(log: &SearchLog) -> (SearchLog, PreprocessReport) {
    let keep: Vec<bool> =
        (0..log.n_pairs()).map(|i| log.n_holders(PairId::from_index(i)) > 1).collect();

    let removed_pairs = keep.iter().filter(|&&k| !k).count();
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
        assert_eq!(pre2.size(), pre.size());
        assert_eq!(pre2.n_pairs(), pre.n_pairs());
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
