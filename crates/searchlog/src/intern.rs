//! A small string interner.
//!
//! Maps strings to dense `u32` ids and back. Used for user-IDs, query
//! strings and urls so the hot histogram code only touches integers.
//!
//! Every string is stored once, in one contiguous byte arena, and found
//! through an open-addressing table of ids (linear probing, load ≤ ½).
//! Ids are insertion order and never depend on the hash. The hash is
//! the standard library's keyed one ([`RandomState`], one key per
//! process), which keeps crafted inputs from forcing long probe chains.
//!
//! # Batched interning
//!
//! On a large vocabulary almost every lookup misses the cache twice: once
//! in the slot table, once in the id's hash and end offset. Taken one
//! string at a time those misses queue behind each other, because the
//! next string's probe waits for the previous string's comparison.
//! [`Interner::intern_batch`] takes a window of strings instead: it
//! hashes them all, grows the table once for the whole window, then
//! loads the first slot each string probes and the hash and end offset
//! of the id found there. Those warm-up loads are plain reads whose
//! values only [`black_box`] consumes, so the processor can have many of
//! them in flight at once. Only then does it run the same find-then-insert
//! as [`Interner::intern`] for each string, in order. The warm-up changes
//! what is in the cache, never what is in the table, so the ids are those
//! of sequential `intern` calls and never depend on how the strings are
//! cut into windows.

use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;
use std::hint::black_box;
use std::sync::OnceLock;

/// String interner with dense ids.
///
/// Ids are handed out in insertion order starting from 0, so they can be
/// used directly as indices into side tables.
#[derive(Debug, Default, Clone)]
pub struct Interner {
    /// All interned strings, concatenated in id order.
    arena: String,
    /// End offset of each string in `arena`, by id.
    ends: Vec<usize>,
    /// Hash of each string, by id (probe filter and rehash source).
    hashes: Vec<u64>,
    /// Open-addressing table of `id + 1`; 0 marks an empty slot. Its
    /// length is 0 or a power of two at least twice the string count.
    slots: Vec<u32>,
}

fn hash_str(s: &str) -> u64 {
    static STATE: OnceLock<RandomState> = OnceLock::new();
    STATE.get_or_init(RandomState::new).hash_one(s)
}

impl Interner {
    /// Create an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create an interner with pre-reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        let mut i = Self::default();
        i.reserve(cap, 0);
        i
    }

    /// Reserve room for `strings` more strings of `bytes` bytes in all,
    /// so that interning them allocates nothing. Growth reallocates the
    /// blocks this makes, and glibc's malloc keeps a reallocated block
    /// in the arena it came from, so an interner that another thread
    /// fills is best reserved on the thread that owns it.
    pub fn reserve(&mut self, strings: usize, bytes: usize) {
        self.arena.reserve(bytes);
        self.ends.reserve(strings);
        self.hashes.reserve(strings);
        self.grow_table(strings);
    }

    /// Grow the table, if need be, so that `strings` more strings keep
    /// its load at most ½.
    fn grow_table(&mut self, strings: usize) {
        let size = (2 * (self.len() + strings)).next_power_of_two().max(16);
        if size > self.slots.len() {
            self.rehash(size);
        }
    }

    /// The slot holding `s` (`Ok`) or the empty slot where it would go
    /// (`Err`). The table must be non-empty.
    fn find(&self, s: &str, h: u64) -> Result<usize, usize> {
        let mask = self.slots.len() - 1;
        let mut pos = h as usize & mask;
        loop {
            match self.slots[pos] {
                0 => return Err(pos),
                slot => {
                    let id = slot as usize - 1;
                    if self.hashes[id] == h && self.resolve(id as u32) == s {
                        return Ok(pos);
                    }
                }
            }
            pos = (pos + 1) & mask;
        }
    }

    /// Rebuild the table at `size` slots (a power of two), in the
    /// table's own allocation.
    fn rehash(&mut self, size: usize) {
        self.slots.clear();
        self.slots.resize(size, 0);
        let mask = size - 1;
        for (id, &h) in self.hashes.iter().enumerate() {
            let mut pos = h as usize & mask;
            while self.slots[pos] != 0 {
                pos = (pos + 1) & mask;
            }
            self.slots[pos] = id as u32 + 1;
        }
    }

    /// Intern `s`, returning its dense id (existing or freshly assigned).
    pub fn intern(&mut self, s: &str) -> u32 {
        self.grow_table(1);
        self.insert(s, hash_str(s))
    }

    /// Intern each string of `strs` in order, appending its id to `out`:
    /// the ids that as many [`intern`](Self::intern) calls would return.
    /// `hashes` is scratch (its contents are replaced), so a caller that
    /// interns window after window allocates nothing once it has grown.
    ///
    /// See the module docs for why a window beats one string at a time.
    pub fn intern_batch(&mut self, strs: &[&str], hashes: &mut Vec<u64>, out: &mut Vec<u32>) {
        hashes.clear();
        hashes.extend(strs.iter().map(|s| hash_str(s)));
        self.grow_table(strs.len());
        // warm-up: load the first slot each string probes, and the hash
        // and end offset of the id there, without acting on them
        let mask = self.slots.len() - 1;
        for &h in hashes.iter() {
            let slot = self.slots[h as usize & mask];
            if slot != 0 {
                let id = slot as usize - 1;
                black_box((self.hashes[id], self.ends[id]));
            }
        }
        out.extend(strs.iter().zip(hashes.iter()).map(|(s, &h)| self.insert(s, h)));
    }

    /// Find `s` (hash `h`) or insert it, returning its id. The table must
    /// have room for one more string.
    fn insert(&mut self, s: &str, h: u64) -> u32 {
        match self.find(s, h) {
            Ok(pos) => self.slots[pos] - 1,
            Err(pos) => {
                let id = u32::try_from(self.len()).expect("interner overflow");
                assert!(id < u32::MAX, "interner overflow");
                self.arena.push_str(s);
                self.ends.push(self.arena.len());
                self.hashes.push(h);
                self.slots[pos] = id + 1;
                id
            }
        }
    }

    /// Look up an already-interned string without inserting.
    pub fn get(&self, s: &str) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        self.find(s, hash_str(s)).ok().map(|pos| self.slots[pos] - 1)
    }

    /// Resolve an id back to its string. Panics on out-of-range ids.
    pub fn resolve(&self, id: u32) -> &str {
        let id = id as usize;
        let start = if id == 0 { 0 } else { self.ends[id - 1] };
        &self.arena[start..self.ends[id]]
    }

    /// Number of interned strings.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether the interner is empty.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Iterate over `(id, string)` in id order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &str)> {
        (0..self.len() as u32).map(move |id| (id, self.resolve(id)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut i = Interner::new();
        let a = i.intern("pizza");
        let b = i.intern("pizza");
        assert_eq!(a, b);
        assert_eq!(i.len(), 1);
    }

    #[test]
    fn ids_are_dense_in_insertion_order() {
        let mut i = Interner::new();
        assert_eq!(i.intern("a"), 0);
        assert_eq!(i.intern("b"), 1);
        assert_eq!(i.intern("a"), 0);
        assert_eq!(i.intern("c"), 2);
    }

    #[test]
    fn resolve_roundtrips() {
        let mut i = Interner::new();
        let id = i.intern("www.honda.com");
        assert_eq!(i.resolve(id), "www.honda.com");
    }

    #[test]
    fn get_does_not_insert() {
        let mut i = Interner::new();
        assert_eq!(i.get("x"), None);
        i.intern("x");
        assert_eq!(i.get("x"), Some(0));
        assert_eq!(i.len(), 1);
    }

    #[test]
    fn iter_yields_in_order() {
        let mut i = Interner::new();
        i.intern("a");
        i.intern("b");
        let v: Vec<_> = i.iter().map(|(id, s)| (id, s.to_string())).collect();
        assert_eq!(v, vec![(0, "a".to_string()), (1, "b".to_string())]);
    }

    #[test]
    fn many_strings_survive_growth() {
        let mut i = Interner::with_capacity(3);
        let words: Vec<String> = (0..5000).map(|n| format!("w{}", n * 7919 % 10007)).collect();
        let ids: Vec<u32> = words.iter().map(|w| i.intern(w)).collect();
        assert_eq!(ids, (0..5000).collect::<Vec<u32>>(), "distinct words get dense ids");
        for (w, &id) in words.iter().zip(&ids) {
            assert_eq!(i.get(w), Some(id));
            assert_eq!(i.resolve(id), w);
        }
        assert_eq!(i.get("absent"), None);
        // the empty string and strings sharing prefixes are distinct keys
        let e = i.intern("");
        assert_eq!(i.resolve(e), "");
        assert_ne!(i.intern("ab"), i.intern("abc"));
        assert_eq!(i.clone().get("w0"), i.get("w0"));
    }

    #[test]
    fn intern_batch_matches_intern() {
        let words = ["ab", "", "abc", "ab", "a", "", "abc", "b"];
        let mut sequential = Interner::new();
        let expect: Vec<u32> = words.iter().map(|w| sequential.intern(w)).collect();
        assert_eq!(expect, [0, 1, 2, 0, 3, 1, 2, 4], "repeats within the window keep their id");
        let mut batched = Interner::new();
        let (mut hashes, mut ids) = (Vec::new(), Vec::new());
        batched.intern_batch(&words[..5], &mut hashes, &mut ids);
        batched.intern_batch(&[], &mut hashes, &mut ids);
        batched.intern_batch(&words[5..], &mut hashes, &mut ids);
        assert_eq!(ids, expect, "ids appended across windows");
        assert!(batched.iter().eq(sequential.iter()));
    }

    #[test]
    fn empty_reports_empty() {
        assert!(Interner::new().is_empty());
    }
}
