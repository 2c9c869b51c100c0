//! Hash-consed interning of the A\* closed set's state keys.
//!
//! The closed set keys on vertex-set bit patterns (`&[u64]` blocks of a
//! [`BitSet`]). The interner stores each distinct key exactly once in a
//! [`WordArena`] and hands out dense `u32` ids, so
//!
//! * lookups hash the **borrowed** words (FxHash, no allocation, no copy),
//! * each key is materialised at most once, when first seen,
//! * the best-g side table is a plain `Vec` indexed by id instead of a
//!   hash map.
//!
//! [`BitSet`]: ghd_hypergraph::BitSet

use crate::arena::WordArena;
use ghd_prng::hash::fx_hash_words;

const EMPTY: u32 = u32::MAX;

/// An open-addressing hash-consing table over fixed-width word rows.
///
/// Ids are dense and allocated in first-seen order, so a `Vec` indexed by id
/// is the natural associated storage (see the A\* closed set in `astar.rs`).
pub struct StateInterner {
    arena: WordArena,
    /// Power-of-two open-addressing table of row ids (`EMPTY` = vacant),
    /// linear probing, grown at ¾ load.
    table: Vec<u32>,
    mask: usize,
}

impl StateInterner {
    /// An interner for keys of `width` words.
    pub fn new(width: usize) -> Self {
        let cap = 64;
        StateInterner {
            arena: WordArena::new(width),
            table: vec![EMPTY; cap],
            mask: cap - 1,
        }
    }

    /// An interner sized for the block keys of vertex sets over `0..n`.
    pub fn for_vertices(n: usize) -> Self {
        Self::new(n.div_ceil(64))
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

    /// Bytes reserved by the arena and the probe table.
    pub fn bytes(&self) -> usize {
        self.arena.bytes() + self.table.capacity() * std::mem::size_of::<u32>()
    }

    /// Interns `key`, returning `(id, fresh)`: the dense id of its canonical
    /// copy, and whether this call created it. Lookup of an already-interned
    /// key allocates nothing.
    ///
    /// Panics once `u32::MAX` keys exist; memory runs out far earlier.
    pub fn intern(&mut self, key: &[u64]) -> (u32, bool) {
        if self.arena.len() * 4 >= self.table.len() * 3 {
            self.grow();
        }
        let mut i = (fx_hash_words(key) as usize) & self.mask;
        loop {
            let slot = self.table[i];
            if slot == EMPTY {
                // EMPTY is the vacant-slot sentinel, never an id
                assert!(self.arena.len() < EMPTY as usize, "state interner id space exhausted");
                let id = self.arena.push(key);
                self.table[i] = id;
                return (id, true);
            }
            if self.arena.row(slot) == key {
                return (slot, false);
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

        fn get(&self, id: u32) -> &[u64] {
            self.arena.row(id)
        }
    }
}
