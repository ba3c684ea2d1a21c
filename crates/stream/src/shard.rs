//! User-hash shards: integer-only aggregation.
//!
//! The intake routes every record to `shard_of(user) = fnv1a(user) mod
//! n_shards`, so a shard holds *complete* user logs — the invariant
//! that keeps sharding privacy-neutral (see the crate docs). Strings
//! never reach a shard: the session interns every user, query and url
//! once, into one session-wide vocabulary, and assigns global pair ids
//! at intake (see [`crate::engine`]). A shard keeps only its
//! `(pair, user) → count` map and its row/click counters, and
//! drains to a `(pair, user)`-sorted triplet vector that the engine
//! merges without touching a string.
//!
//! Per row a shard does one lookup in a map keyed by the `(pair, user)`
//! ids, hashed as one packed `u64` by the keyed integer hasher
//! ([`dpsan_searchlog::IdMap`]).

use dpsan_searchlog::{IdMap, IdPair};

/// FNV-1a over the user string: a stable, seedless hash so shard
/// assignment is identical across runs, platforms and processes (the
/// std `DefaultHasher` promises none of that).
#[inline]
pub fn user_hash(user: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in user.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The shard index of a user.
#[inline]
pub fn shard_of(user: &str, n_shards: usize) -> usize {
    assert!(n_shards >= 1, "need at least one shard");
    (user_hash(user) % n_shards as u64) as usize
}

/// One shard mid-intake: the aggregated triplets of its users, keyed
/// by global `(pair, user)` ids. Memory is proportional to the shard's
/// *aggregated* content, never to the raw stream length.
#[derive(Debug, Default, Clone)]
pub struct ShardIntake {
    // (pair, user) -> count
    triplets: IdMap<u64>,
    rows: u64,
    clicks: u64,
}

impl ShardIntake {
    /// An empty shard.
    pub fn new() -> Self {
        Self::default()
    }

    /// Aggregate one record of global pair `pair` by global user
    /// `user`. The caller is responsible for routing: every record of
    /// one user must reach the same shard.
    pub fn add(&mut self, pair: u32, user: u32, count: u64) {
        debug_assert!(count > 0, "zero counts are rejected by the reader");
        self.rows += 1;
        self.clicks += count;
        *self.triplets.entry(IdPair(pair, user)).or_insert(0) += count;
    }

    /// Number of distinct `(pair, user)` triplets staged so far — the
    /// quantity that actually occupies memory (raw rows are never
    /// retained).
    pub fn staged_triplets(&self) -> usize {
        self.triplets.len()
    }

    /// The staged triplets as `(pair, user, count)`, sorted by
    /// `(pair, user)`. Non-destructive: intake can continue afterwards.
    pub fn sorted_triplets(&self) -> Vec<(u32, u32, u64)> {
        let mut out: Vec<(u32, u32, u64)> =
            self.triplets.iter().map(|(&IdPair(p, u), &c)| (p, u, c)).collect();
        out.sort_unstable_by_key(|&(p, u, _)| (p, u));
        out
    }
}

/// A plain-data image of one [`ShardIntake`] mid-intake — what the
/// durable store (`dpsan-store`) persists in a shard snapshot. Only
/// integers: the strings live once in the session vocabulary
/// ([`VocabState`](crate::VocabState)). `triplets` is sorted by
/// `(pair, user)` id so exporting the same shard twice yields the same
/// bytes once encoded.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ShardState {
    /// Aggregated `(global pair, global user, count)`, strictly sorted
    /// by ids.
    pub triplets: Vec<(u32, u32, u64)>,
    /// Raw records routed to this shard so far.
    pub rows: u64,
    /// Click volume of those records.
    pub clicks: u64,
}

impl ShardState {
    /// Structural sanity of a decoded state against a vocabulary of
    /// `n_pairs` pairs and `n_users` users: ids in range, positive
    /// counts, strictly sorted (hence duplicate-free) triplets. Returns
    /// a description of the first violation, if any — a
    /// corrupt-but-checksum-valid snapshot must never panic deep inside
    /// intake.
    pub fn validate(&self, n_pairs: usize, n_users: usize) -> Result<(), String> {
        let mut prev: Option<(u32, u32)> = None;
        for &(p, u, c) in &self.triplets {
            if p as usize >= n_pairs || u as usize >= n_users {
                return Err(format!("triplet ({p}, {u}) outside the vocabulary"));
            }
            if c == 0 {
                return Err("zero-count triplet".into());
            }
            if prev >= Some((p, u)) {
                return Err(format!("triplet ({p}, {u}) out of order or duplicated"));
            }
            prev = Some((p, u));
        }
        Ok(())
    }
}

impl ShardIntake {
    /// Export the live state as plain data (see [`ShardState`]).
    pub fn export_state(&self) -> ShardState {
        ShardState { triplets: self.sorted_triplets(), rows: self.rows, clicks: self.clicks }
    }

    /// Rebuild a live shard from exported state that already passed
    /// [`ShardState::validate`].
    pub fn from_state(state: ShardState) -> Self {
        ShardIntake {
            triplets: state.triplets.iter().map(|&(p, u, c)| (IdPair(p, u), c)).collect(),
            rows: state.rows,
            clicks: state.clicks,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_is_stable() {
        // pinned values: shard routing must never drift between builds
        assert_eq!(user_hash(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(user_hash("081"), user_hash("081"));
        assert_ne!(user_hash("081"), user_hash("082"));
    }

    #[test]
    fn shard_of_covers_range() {
        for n in [1usize, 2, 7, 16] {
            for u in 0..100 {
                let s = shard_of(&format!("user{u}"), n);
                assert!(s < n);
            }
        }
    }

    #[test]
    fn triplets_aggregate_and_drain_sorted() {
        let mut s = ShardIntake::new();
        s.add(1, 3, 1);
        s.add(0, 0, 2);
        s.add(1, 0, 5);
        s.add(0, 0, 4);
        assert_eq!(s.sorted_triplets(), vec![(0, 0, 6), (1, 0, 5), (1, 3, 1)]);
        let state = s.export_state();
        assert_eq!((state.rows, state.clicks), (4, 12));
    }

    #[test]
    fn staged_triplets_counts_aggregates_not_rows() {
        let mut s = ShardIntake::new();
        for _ in 0..50 {
            s.add(0, 0, 1);
        }
        assert_eq!(s.staged_triplets(), 1, "memory tracks aggregation, not stream length");
    }

    #[test]
    fn state_roundtrip_is_exact() {
        let mut s = ShardIntake::new();
        s.add(0, 0, 2);
        s.add(1, 1, 1);
        s.add(2, 0, 4);
        let state = s.export_state();
        state.validate(3, 2).unwrap();
        let restored = ShardIntake::from_state(state.clone());
        assert_eq!(restored.export_state(), state, "export∘restore is the identity");
        // the restored shard keeps ingesting identically
        let mut a = s.clone();
        let mut b = restored;
        a.add(0, 2, 5);
        b.add(0, 2, 5);
        assert_eq!(a.export_state(), b.export_state());
    }

    #[test]
    fn corrupt_state_is_rejected_not_panicked() {
        let mut s = ShardIntake::new();
        s.add(0, 0, 2);
        s.add(1, 0, 1);
        let good = s.export_state();
        assert!(good.validate(1, 1).unwrap_err().contains("outside the vocabulary"));
        let mut bad = good.clone();
        bad.triplets[0].2 = 0;
        assert!(bad.validate(2, 1).unwrap_err().contains("zero-count"));
        let mut bad = good;
        bad.triplets.swap(0, 1);
        assert!(bad.validate(2, 1).unwrap_err().contains("out of order"));
    }
}
