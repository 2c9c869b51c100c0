//! Hash-consed interning of search-state keys.
//!
//! The A\* closed set and the set-cover transposition cache both key on
//! vertex-set bit patterns (`&[u64]` blocks of a [`BitSet`]). Before this
//! module each table boxed its own copy of every key (`Box<[u64]>` per
//! entry); the interner stores each distinct key exactly once in a
//! [`WordArena`] and hands out dense `u32` ids, so
//!
//! * lookups hash the **borrowed** words (FxHash, no allocation, no copy),
//! * each key is materialised at most once, when first seen,
//! * side tables become plain `Vec`s indexed by id instead of hash maps.
//!
//! Each interner keys one kind of set: the A\* engine owns the closed
//! set's, and each ghw search worker owns the one for its cover targets.
//!
//! [`BitSet`]: ghd_hypergraph::BitSet

use crate::arena::WordArena;
use ghd_prng::hash::fx_hash_words;

const EMPTY: u32 = u32::MAX;

/// An open-addressing hash-consing table over fixed-width word rows.
///
/// Ids are dense and allocated in first-seen order, so a `Vec` indexed by id
/// is the natural associated storage (see the A\* closed set in `astar.rs`
/// and the dense path of `ghd_core::setcover::CoverCache`).
pub struct StateInterner {
    arena: WordArena,
    /// Power-of-two open-addressing table of row ids (`EMPTY` = vacant),
    /// linear probing, grown at ¾ load.
    table: Vec<u32>,
    mask: usize,
    /// Hard cap on the id space: [`StateInterner::try_intern`] refuses to
    /// create fresh keys once `len() == limit` (existing keys still
    /// resolve). Sharded interners set this to their worker-local id range
    /// so a packed id can never spill into another worker's bits.
    limit: u32,
}

impl StateInterner {
    /// An interner for keys of `width` words, with an effectively unbounded
    /// id space (`u32::MAX - 1`; the arena would exhaust memory far first).
    pub fn new(width: usize) -> Self {
        // EMPTY (u32::MAX) is the vacant-slot sentinel, so the last usable
        // id is u32::MAX - 1.
        Self::with_limit(width, u32::MAX - 1)
    }

    /// An interner for keys of `width` words whose id space is capped at
    /// `limit` distinct keys.
    pub fn with_limit(width: usize, limit: u32) -> Self {
        let cap = 64;
        StateInterner {
            arena: WordArena::new(width),
            table: vec![EMPTY; cap],
            mask: cap - 1,
            limit,
        }
    }

    /// An interner sized for the block keys of vertex sets over `0..n`.
    pub fn for_vertices(n: usize) -> Self {
        Self::new(n.div_ceil(64))
    }

    /// `true` once the id space is exhausted: every further
    /// [`StateInterner::try_intern`] of an unseen key returns `None`.
    #[inline]
    pub fn at_capacity(&self) -> bool {
        self.arena.len() as u64 >= self.limit as u64
    }

    /// Number of distinct keys interned so far.
    #[inline]
    pub fn len(&self) -> usize {
        self.arena.len()
    }

    /// `true` iff nothing was interned yet.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.arena.is_empty()
    }

    /// Borrows the canonical storage of key `id`.
    #[inline]
    pub fn get(&self, id: u32) -> &[u64] {
        self.arena.row(id)
    }

    /// Bytes reserved by the arena and the probe table.
    pub fn bytes(&self) -> usize {
        self.arena.bytes() + self.table.capacity() * std::mem::size_of::<u32>()
    }

    /// Interns `key`, returning `(id, fresh)`: the dense id of its canonical
    /// copy, and whether this call created it. Lookup of an already-interned
    /// key allocates nothing.
    ///
    /// Panics if the id space is exhausted — callers that can degrade
    /// gracefully (the sharded parallel searches) use
    /// [`StateInterner::try_intern`] instead. With the default limit this
    /// is unreachable in practice.
    pub fn intern(&mut self, key: &[u64]) -> (u32, bool) {
        self.try_intern(key)
            .expect("state interner id space exhausted")
    }

    /// Interns `key` like [`StateInterner::intern`], but returns `None`
    /// instead of creating a fresh key once the id-space limit is reached.
    /// Already-interned keys still resolve (`Some((id, false))`) at
    /// capacity, so hits keep working after overflow.
    pub fn try_intern(&mut self, key: &[u64]) -> Option<(u32, bool)> {
        if self.arena.len() * 4 >= self.table.len() * 3 {
            self.grow();
        }
        let mut i = (fx_hash_words(key) as usize) & self.mask;
        loop {
            let slot = self.table[i];
            if slot == EMPTY {
                if self.at_capacity() {
                    return None;
                }
                let id = self.arena.push(key);
                self.table[i] = id;
                return Some((id, true));
            }
            if self.arena.row(slot) == key {
                return Some((slot, false));
            }
            i = (i + 1) & self.mask;
        }
    }

    fn grow(&mut self) {
        let cap = self.table.len() * 2;
        let mask = cap - 1;
        let mut table = vec![EMPTY; cap];
        for id in 0..self.arena.len() as u32 {
            let mut i = (fx_hash_words(self.arena.row(id)) as usize) & mask;
            while table[i] != EMPTY {
                i = (i + 1) & mask;
            }
            table[i] = id;
        }
        self.table = table;
        self.mask = mask;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ghd_prng::rngs::StdRng;
    use ghd_prng::RngExt;
    use std::collections::HashMap;

    #[test]
    fn interning_matches_a_hashmap_model() {
        // differential test across enough keys to force several table grows
        let mut rng = StdRng::seed_from_u64(42);
        let mut interner = StateInterner::new(3);
        let mut model: HashMap<Vec<u64>, u32> = HashMap::new();
        for _ in 0..5000 {
            // small word values so duplicates are frequent
            let key = [
                rng.random_range(0..8),
                rng.random_range(0..4),
                rng.random_range(0..4),
            ];
            let (id, fresh) = interner.intern(&key);
            match model.get(key.as_slice()) {
                Some(&expect) => {
                    assert_eq!((id, fresh), (expect, false));
                }
                None => {
                    assert!(fresh);
                    assert_eq!(id as usize, model.len(), "ids are dense, first-seen order");
                    model.insert(key.to_vec(), id);
                }
            }
            assert_eq!(interner.get(id), key);
        }
        assert_eq!(interner.len(), model.len());
        assert!(interner.len() > 48, "grow path exercised");
    }

    #[test]
    fn distinct_keys_get_distinct_ids() {
        let mut interner = StateInterner::for_vertices(130);
        assert_eq!(interner.arena_width(), 3);
        let (a, fa) = interner.intern(&[1, 0, 0]);
        let (b, fb) = interner.intern(&[0, 1, 0]);
        let (a2, fa2) = interner.intern(&[1, 0, 0]);
        assert!(fa && fb && !fa2);
        assert_ne!(a, b);
        assert_eq!(a, a2);
        assert!(interner.bytes() > 0);
    }

    impl StateInterner {
        fn arena_width(&self) -> usize {
            self.arena.width()
        }
    }

    /// At the id-space limit, fresh keys are refused (`None`) while
    /// already-interned keys keep resolving — the behaviour the sharded
    /// overflow degrade path relies on.
    #[test]
    fn capacity_limit_refuses_fresh_keys_but_keeps_hits() {
        let mut interner = StateInterner::with_limit(1, 3);
        assert!(!interner.at_capacity());
        let ids: Vec<u32> = (0..3u64)
            .map(|w| {
                let (id, fresh) = interner.try_intern(&[w]).expect("under the limit");
                assert!(fresh);
                id
            })
            .collect();
        assert!(interner.at_capacity());
        assert_eq!(interner.try_intern(&[99]), None, "fresh key refused at capacity");
        assert_eq!(interner.try_intern(&[1]), Some((ids[1], false)), "hits still resolve");
        assert_eq!(interner.len(), 3, "no id was created past the limit");
        for (w, id) in ids.iter().enumerate() {
            assert_eq!(interner.get(*id), &[w as u64]);
        }
    }
}
