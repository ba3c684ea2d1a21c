//! Typed, interned identifiers.
//!
//! Users, queries, urls and query–url pairs are referenced everywhere by
//! dense `u32` indices. Newtypes keep the four id spaces from being mixed
//! up at compile time while staying `Copy` and 4 bytes wide.
//!
//! Maps keyed by *two* ids — `(query, url)` → pair, `(pair, user)` →
//! count — use the [`IdPair`] key, which hashes as one packed `u64`,
//! under [`IdBuildHasher`]: one keyed multiply-fold per lookup instead of
//! SipHash over two words. The standard hasher exists to keep crafted
//! keys from colliding; ids are assigned in input order, so an input can
//! choose them, and the fold is therefore keyed too: its seed is drawn
//! once per process from [`RandomState`]. The multiplier is a fixed odd
//! constant, as in foldhash: a random one spreads dense keys badly for
//! some draws (one 64-bucket table in ~20 left a bucket empty for 4,096
//! sequential ids). A multiply-fold (the high and low halves of the
//! 128-bit product, XORed) spreads every input bit into both the low
//! bits the table indexes by and the high bits it filters with, so
//! dense sequential ids do not cluster. Strings keep [`RandomState`]
//! (see [`crate::intern`]).

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash, Hasher};
use std::sync::OnceLock;

macro_rules! define_id {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub u32);

        impl $name {
            /// Dense index into the corresponding table.
            #[inline]
            pub fn index(self) -> usize {
                self.0 as usize
            }

            /// Construct from a dense index (panics if it overflows `u32`).
            #[inline]
            pub fn from_index(i: usize) -> Self {
                $name(u32::try_from(i).expect("id overflow"))
            }
        }

        impl std::fmt::Display for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(f, "{}", self.0)
            }
        }
    };
}

define_id!(
    /// A pseudonymous user (`s_k` in the paper).
    UserId
);
define_id!(
    /// A search query (`q_i`).
    QueryId
);
define_id!(
    /// A clicked url (`u_j`).
    UrlId
);
define_id!(
    /// A distinct click-through query–url pair (`(q_i, u_j)`).
    PairId
);

/// Two ids as one map key, ordered by `(hi, lo)`. It hashes as the
/// packed `u64` `hi << 32 | lo` but is stored as two `u32`s, so a
/// `key → u32` map entry stays 12 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct IdPair(pub u32, pub u32);

impl Hash for IdPair {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64((u64::from(self.0) << 32) | u64::from(self.1));
    }
}

/// The high and low halves of the 128-bit product, XORed.
#[inline]
fn fold_mul(a: u64, b: u64) -> u64 {
    let full = u128::from(a) * u128::from(b);
    (full as u64) ^ ((full >> 64) as u64)
}

/// The fold multiplier of every [`IdHasher`]. Odd, so the product is a
/// bijection of its input.
const FOLD_MUL: u64 = 0x5851_F42D_4C95_7F2D;

/// The per-process seed of every [`IdBuildHasher`].
fn process_seed() -> u64 {
    static SEED: OnceLock<u64> = OnceLock::new();
    *SEED.get_or_init(|| RandomState::new().hash_one(0u64))
}

/// Builds [`IdHasher`]s under the per-process seed (see the module
/// docs).
#[derive(Debug, Clone, Copy)]
pub struct IdBuildHasher {
    seed: u64,
}

impl IdBuildHasher {
    #[cfg(test)]
    fn with_seed(seed: u64) -> Self {
        IdBuildHasher { seed }
    }
}

impl Default for IdBuildHasher {
    fn default() -> Self {
        IdBuildHasher { seed: process_seed() }
    }
}

impl BuildHasher for IdBuildHasher {
    type Hasher = IdHasher;

    #[inline]
    fn build_hasher(&self) -> IdHasher {
        IdHasher { state: self.seed }
    }
}

/// A keyed multiply-fold hasher for integer keys (see the module docs).
/// Each written word is XORed into the state and folded; an [`IdPair`]
/// costs one multiplication.
#[derive(Debug, Clone, Copy)]
pub struct IdHasher {
    state: u64,
}

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.state = fold_mul(self.state ^ n, FOLD_MUL);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }
}

/// A map keyed by [`IdPair`]s under [`IdBuildHasher`].
pub type IdMap<V> = HashMap<IdPair, V, IdBuildHasher>;

/// An empty [`IdMap`] with room for `cap` entries.
pub fn id_map_with_capacity<V>(cap: usize) -> IdMap<V> {
    HashMap::with_capacity_and_hasher(cap, IdBuildHasher::default())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_index() {
        let u = UserId::from_index(42);
        assert_eq!(u.index(), 42);
        assert_eq!(u, UserId(42));
    }

    #[test]
    fn ordering_follows_index() {
        assert!(PairId(1) < PairId(2));
    }

    #[test]
    fn display_is_numeric() {
        assert_eq!(QueryId(7).to_string(), "7");
    }

    #[test]
    #[should_panic(expected = "id overflow")]
    fn from_index_overflow_panics() {
        let _ = UrlId::from_index(usize::MAX);
    }

    #[test]
    fn id_pairs_order_by_high_id_and_hash_as_packed_words() {
        assert!(IdPair(1, u32::MAX) < IdPair(2, 0), "high id dominates");
        assert!(IdPair(2, 0) < IdPair(2, 1));
        let b = IdBuildHasher::default();
        assert_eq!(b.hash_one(IdPair(3, 4)), b.hash_one((3u64 << 32) | 4));
        assert_eq!(std::mem::size_of::<(IdPair, u32)>(), 12);
    }

    #[test]
    fn id_hasher_is_per_process_stable_and_spreads_dense_keys() {
        let b = IdBuildHasher::default();
        assert_eq!(b.hash_one(IdPair(3, 4)), IdBuildHasher::default().hash_one(IdPair(3, 4)));
        // dense sequential keys must reach every bucket of a small table
        // through both the low (index) and the high (filter) bits, under
        // the process seed and under fixed seeds that make a failure
        // reproducible
        let seeds = [0, 1, u64::MAX, 0x9E37_79B9_7F4A_7C15, 0xDEAD_BEEF_0000_0000, 4095];
        for b in std::iter::once(b).chain(seeds.map(IdBuildHasher::with_seed)) {
            let mut low = [0usize; 64];
            let mut high = [0usize; 64];
            for k in 0..4096u64 {
                let h = b.hash_one(k);
                low[(h & 63) as usize] += 1;
                high[(h >> 58) as usize] += 1;
            }
            assert!(low.iter().chain(&high).all(|&n| n > 20), "{b:?}: {low:?} {high:?}");
        }
        let mut m: IdMap<u32> = id_map_with_capacity(4);
        for k in 0..1000u32 {
            m.insert(IdPair(k, k ^ 5), k);
        }
        assert!((0..1000u32).all(|k| m[&IdPair(k, k ^ 5)] == k));
    }
}
