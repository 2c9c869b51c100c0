//! Canonical instance keys and the verified decomposition cache.
//!
//! `ghd-serve` answers repeated solve requests from a cache instead of
//! re-running the search. Two requests should share an entry exactly when
//! the solver would print byte-identical output for both, which is a
//! statement about the *parsed* instance, not the request bytes: comment
//! lines, blank lines, and whitespace never reach the search. The cache
//! key therefore has three parts:
//!
//! 1. a **bucket hash** ([`text_hash`]) — FxHash over the canonical
//!    text's bytes, used only to pick the bucket;
//! 2. the **canonical text** — the instance re-serialized by the
//!    workspace's own writers, compared for exact equality on every probe
//!    (like the interners in `ghd_prng::hash`-keyed maps, a hash match is
//!    never trusted on its own); and
//! 3. a **signature** string carrying the command and the normalized flag
//!    set, so `--method bb` and `--method astar` results never alias even
//!    though they describe the same instance.
//!
//! [`DecompCache`] stores admitted results under a byte cap with
//! least-recently-used eviction. Admission *policy* (only self-certified
//! exact results enter) lives in the caller; this module provides the
//! mechanism and the accounting.

pub mod log;

use crate::setcover::CacheStats;
use ghd_prng::hash::FxHasher;
use std::hash::Hasher as _;

/// Bucket hash of a canonical text: the workspace's deterministic FxHash
/// over its bytes, length first. Two instances share a bucket when their
/// canonical texts are equal, which is exactly when the probe's exact
/// comparison would accept them; label-invariant structure hashing would
/// buy nothing on top of that comparison.
pub fn text_hash(canon: &str) -> u64 {
    let mut h = FxHasher::default();
    h.write_word(canon.len() as u64);
    h.write(canon.as_bytes());
    h.finish()
}

/// Full identity of a cached result: bucket hash, exact canonical text,
/// and the solve signature (command + normalized flags).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CacheKey {
    /// [`text_hash`] of `canon` — selects the bucket, never trusted alone.
    pub hash: u64,
    /// The instance re-serialized by the workspace writers; exact-equality
    /// verified on every probe.
    pub canon: String,
    /// Command plus normalized flag set; distinguishes solve variants over
    /// the same instance.
    pub signature: String,
}

/// A cached, self-certified solve result. `body` is the solver's complete
/// stdout (summary line, ordering, decomposition), so a hit reproduces the
/// one-shot answer byte for byte.
#[derive(Clone, Debug)]
pub struct CachedDecomp {
    /// Full response body exactly as the solver printed it.
    pub body: String,
    /// The certified width the body reports.
    pub width: usize,
}

struct Entry {
    key: CacheKey,
    value: CachedDecomp,
    bytes: usize,
    last_used: u64,
}

impl Entry {
    fn cost(key: &CacheKey, value: &CachedDecomp) -> usize {
        // Dominant heap costs; the fixed per-entry overhead is charged flat.
        key.canon.len() + key.signature.len() + value.body.len() + 96
    }
}

/// Byte-capped LRU cache of verified decompositions, keyed by
/// [`CacheKey`]. Probes verify canonical text and signature exactly; the
/// hash only narrows the candidate set.
pub struct DecompCache {
    cap_bytes: usize,
    entries: Vec<Entry>,
    bytes: usize,
    tick: u64,
    stats: CacheStats,
}

impl DecompCache {
    /// An empty cache holding at most `cap_bytes` of entry payload.
    pub fn new(cap_bytes: usize) -> Self {
        DecompCache { cap_bytes, entries: Vec::new(), bytes: 0, tick: 0, stats: CacheStats::default() }
    }

    /// Looks `key` up; a hit refreshes the entry's LRU stamp.
    pub fn probe(&mut self, key: &CacheKey) -> Option<CachedDecomp> {
        self.tick += 1;
        let tick = self.tick;
        for entry in &mut self.entries {
            if entry.key.hash == key.hash && entry.key == *key {
                entry.last_used = tick;
                self.stats.hits += 1;
                return Some(entry.value.clone());
            }
        }
        self.stats.misses += 1;
        None
    }

    /// Inserts (or refreshes) an entry, evicting least-recently-used
    /// entries until it fits. Returns `false` when the entry alone exceeds
    /// the byte cap and was refused.
    pub fn admit(&mut self, key: CacheKey, value: CachedDecomp) -> bool {
        let cost = Entry::cost(&key, &value);
        if cost > self.cap_bytes {
            return false;
        }
        self.tick += 1;
        if let Some(entry) = self.entries.iter_mut().find(|e| e.key == key) {
            self.bytes = self.bytes - entry.bytes + cost;
            entry.value = value;
            entry.bytes = cost;
            entry.last_used = self.tick;
        } else {
            self.entries.push(Entry { key, value, bytes: cost, last_used: self.tick });
            self.bytes += cost;
            self.stats.entries = self.entries.len();
        }
        while self.bytes > self.cap_bytes {
            let victim = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(i, _)| i)
                .expect("bytes > 0 implies an entry exists");
            let evicted = self.entries.swap_remove(victim);
            self.bytes -= evicted.bytes;
            self.stats.evictions += 1;
            self.stats.entries = self.entries.len();
        }
        true
    }

    /// Hit/miss/eviction counters plus the current entry count.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Bytes currently charged against the cap.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Number of cached results.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` iff nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ghd_hypergraph::io;

    fn key(tag: &str) -> CacheKey {
        CacheKey { hash: text_hash(tag), canon: tag.to_string(), signature: "tw".into() }
    }

    fn val(body: &str) -> CachedDecomp {
        CachedDecomp { body: body.to_string(), width: 2 }
    }

    #[test]
    fn probe_verifies_exact_text_not_just_hash() {
        let mut cache = DecompCache::new(1 << 16);
        let mut a = key("p edge 3 2");
        let mut b = key("p edge 3 3");
        b.hash = a.hash; // force a bucket collision
        assert!(cache.admit(a.clone(), val("width = 1")));
        assert!(cache.probe(&a).is_some());
        assert!(cache.probe(&b).is_none(), "hash collision must not alias entries");
        // same text, different signature: distinct results
        a.signature = "ghw".into();
        assert!(cache.probe(&a).is_none());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 2));
    }

    #[test]
    fn lru_eviction_respects_byte_cap() {
        let base = Entry::cost(&key("aaaa"), &val("bbbb"));
        let mut cache = DecompCache::new(2 * base);
        assert!(cache.admit(key("aaaa"), val("bbbb")));
        assert!(cache.admit(key("cccc"), val("dddd")));
        assert_eq!(cache.len(), 2);
        // touch the first entry so the second is the LRU victim
        assert!(cache.probe(&key("aaaa")).is_some());
        assert!(cache.admit(key("eeee"), val("ffff")));
        assert_eq!(cache.len(), 2);
        assert!(cache.probe(&key("aaaa")).is_some(), "recently-used entry survives");
        assert!(cache.probe(&key("cccc")).is_none(), "LRU entry evicted");
        assert_eq!(cache.stats().evictions, 1);
        assert!(cache.bytes() <= 2 * base);
        // an entry larger than the whole cap is refused outright
        assert!(!cache.admit(key("zzzz"), val(&"x".repeat(4 * base))));
    }

    #[test]
    fn text_hash_follows_the_canonical_text() {
        let a = io::write_hypergraph(&io::parse_hypergraph("e1(a,b,c)\ne2(c,d)\n").unwrap());
        let b = io::write_hypergraph(
            &io::parse_hypergraph("% comment\n e1 ( a , b , c )\n\ne2(c,d)\n").unwrap(),
        );
        let c = io::write_hypergraph(&io::parse_hypergraph("e1(a,b,c)\ne2(c,d)\ne3(d,a)\n").unwrap());
        assert_eq!(a, b, "comments and layout never reach the canonical text");
        assert_eq!(text_hash(&a), text_hash(&b));
        assert_ne!(text_hash(&a), text_hash(&c));

        let g1 = io::write_dimacs(&io::parse_dimacs("p edge 4 3\ne 1 2\ne 2 3\ne 3 4\n").unwrap());
        let g2 = io::write_dimacs(&io::parse_dimacs("c path\np edge 4 3\ne 3 4\ne 1 2\ne 2 3\n").unwrap());
        let g3 = io::write_dimacs(&io::parse_dimacs("p edge 4 4\ne 1 2\ne 2 3\ne 3 4\ne 4 1\n").unwrap());
        assert_eq!(g1, g2);
        assert_eq!(text_hash(&g1), text_hash(&g2));
        assert_ne!(text_hash(&g1), text_hash(&g3));
        // the length word keeps zero-padded tails apart
        assert_ne!(text_hash("a"), text_hash("a\0"));
        assert_ne!(text_hash(""), text_hash("\0"));
    }
}
