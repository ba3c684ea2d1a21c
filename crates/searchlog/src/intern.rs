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

use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;
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
        if 2 * (self.len() + 1) > self.slots.len() {
            self.rehash((2 * (self.len() + 1)).next_power_of_two().max(16));
        }
        let h = hash_str(s);
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
    fn empty_reports_empty() {
        assert!(Interner::new().is_empty());
    }
}
