//! Set cover over the hyperedges of a hypergraph (§2.5.2).
//!
//! Turning a tree decomposition into a generalized hypertree decomposition
//! requires, per bag χ(p), a minimum set of hyperedges covering χ(p). The
//! thesis uses the greedy heuristic (Fig 7.2) inside the genetic algorithms
//! and an external IP solver for exact covers inside BB-ghw / A\*-ghw; here
//! the exact solver is a self-contained branch-and-bound (same optima, no
//! external dependency — see DESIGN.md, substitution 3).
//!
//! [`CoverCache`] memoises both solvers for the exact searches: one
//! content-keyed store of proven facts behind lock stripes, so a single
//! search and the workers of a parallel one query it alike, through
//! `&self`.

use ghd_hypergraph::{BitSet, Hypergraph};
use ghd_prng::hash::{fx_hash_words, FxHashMap};
use ghd_prng::{Rng, RngExt};
use std::cell::RefCell;
use std::sync::{Mutex, MutexGuard};

/// Strategy for solving the per-bag set cover problems.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CoverMethod {
    /// Greedy heuristic (Fig 7.2): upper bound, very fast.
    Greedy,
    /// Exact branch and bound: optimal cover, exponential worst case.
    Exact,
}

/// Marks an edge collected for the current target but not kept (yet, or
/// any more) in [`CandScratch::slot`].
const COLLECTED: u32 = u32::MAX;

/// Reusable index memory for [`candidates`], one per thread. Arrays indexed
/// by edge or vertex grow to the largest hypergraph seen on the thread and
/// are reset through the touched lists, so a call costs nothing
/// proportional to `|V|` or `|E|`.
#[derive(Default)]
struct CandScratch {
    /// Per edge: 0 = untouched, [`COLLECTED`] = meets the target but is not
    /// kept, otherwise 1 + the arena index of its kept restriction.
    slot: Vec<u32>,
    /// Per vertex `v`: arena indices of kept restrictions whose least
    /// vertex is `v` (entries of removed restrictions are pruned lazily).
    first: Vec<Vec<u32>>,
    /// Edges meeting the target: the touched entries of `slot`.
    edges: Vec<usize>,
    /// Vertices whose `first` list was written to.
    first_touched: Vec<usize>,
    /// Restrictions in insertion order, with their sizes and liveness.
    arena: Vec<(usize, BitSet)>,
    len: Vec<u32>,
    alive: Vec<bool>,
    /// Live arena indices in the order the quadratic dedupe kept them.
    order: Vec<u32>,
    /// The restriction under test.
    buf: BitSet,
}

impl CandScratch {
    fn reset(&mut self, h: &Hypergraph) {
        for &e in &self.edges {
            self.slot[e] = 0;
        }
        for &v in &self.first_touched {
            self.first[v].clear();
        }
        self.edges.clear();
        self.first_touched.clear();
        self.arena.clear();
        self.len.clear();
        self.alive.clear();
        self.order.clear();
        if self.slot.len() < h.num_edges() {
            self.slot.resize(h.num_edges(), 0);
        }
        if self.first.len() < h.num_vertices() {
            self.first.resize_with(h.num_vertices(), Vec::new);
        }
    }
}

thread_local! {
    static CAND_SCRATCH: RefCell<CandScratch> = RefCell::new(CandScratch::default());
}

/// Candidate hyperedges for covering `target`: those intersecting it,
/// deduplicated by their restriction to `target` and pruned to maximal
/// restrictions. Returns `(edge_index, restriction)` pairs.
///
/// The result is the set of maximal restrictions, each at the first edge
/// (by index) that realises it, in the order of the quadratic scan that
/// compares every new restriction with every kept one and `swap_remove`s
/// the kept ones it dominates; greedy tie-breaks, and with them the λ-sets
/// printed by `--show`, depend on that order. The kept set is an antichain
/// at every step, so a new restriction is either dominated by a kept one
/// (and nothing is removed) or strictly dominates every kept one it is
/// comparable with. Supersets are therefore looked up among the kept
/// restrictions of the edges through the new restriction's rarest vertex,
/// subsets among the kept restrictions whose least vertex it contains, and
/// the `swap_remove` order is replayed only when something is removed.
pub fn candidates(target: &BitSet, h: &Hypergraph) -> Vec<(usize, BitSet)> {
    CAND_SCRATCH.with(|s| candidates_in(&mut s.borrow_mut(), target, h))
}

fn candidates_in(s: &mut CandScratch, target: &BitSet, h: &Hypergraph) -> Vec<(usize, BitSet)> {
    s.reset(h);
    let CandScratch {
        slot,
        first,
        edges,
        first_touched,
        arena,
        len,
        alive,
        order,
        buf,
    } = s;
    for v in target.iter() {
        for &e in h.edges_containing(v) {
            if slot[e] == 0 {
                slot[e] = COLLECTED;
                edges.push(e);
            }
        }
    }
    edges.sort_unstable();
    for &e in edges.iter() {
        buf.copy_from(h.edge(e));
        buf.intersect_with(target);
        let mut size = 0u32;
        let mut rarest = usize::MAX;
        for v in buf.iter() {
            size += 1;
            if rarest == usize::MAX
                || h.edges_containing(v).len() < h.edges_containing(rarest).len()
            {
                rarest = v;
            }
        }
        // a kept superset contains `rarest`, so its edge is incident to it
        let dominated = h.edges_containing(rarest).iter().any(|&f| {
            let k = slot[f];
            k != 0 && k != COLLECTED && {
                let k = (k - 1) as usize;
                len[k] >= size && buf.is_subset(&arena[k].1)
            }
        });
        if dominated {
            continue;
        }
        // a kept subset's least vertex lies in `buf`
        let mut removed = false;
        for v in buf.iter() {
            let list = &mut first[v];
            let mut w = 0;
            for r in 0..list.len() {
                let k = list[r] as usize;
                if !alive[k] {
                    continue;
                }
                if len[k] < size && arena[k].1.is_subset(buf) {
                    alive[k] = false;
                    slot[arena[k].0] = COLLECTED;
                    removed = true;
                    continue;
                }
                list[w] = k as u32;
                w += 1;
            }
            list.truncate(w);
        }
        if removed {
            // the quadratic scan's `swap_remove` sweep, replayed on flags
            let mut i = 0;
            while i < order.len() {
                if alive[order[i] as usize] {
                    i += 1;
                } else {
                    order.swap_remove(i);
                }
            }
        }
        let k = arena.len();
        let least = buf.min().expect("a restriction meets the target");
        if first[least].is_empty() {
            first_touched.push(least);
        }
        first[least].push(k as u32);
        slot[e] = k as u32 + 1;
        arena.push((e, buf.clone()));
        len.push(size);
        alive.push(true);
        order.push(k as u32);
    }
    order
        .iter()
        .map(|&k| std::mem::take(&mut arena[k as usize]))
        .collect()
}

/// Greedy set cover (Fig 7.2): repeatedly takes a hyperedge covering the
/// maximum number of still-uncovered vertices; ties broken by the supplied
/// `tie_break` (the thesis breaks ties randomly; pass `None` for the
/// deterministic first-maximum rule). Returns the chosen hyperedge indices.
///
/// # Panics
/// Panics if `target` cannot be covered by the hyperedges of `h` (every
/// vertex of a constraint hypergraph lies in some hyperedge, so this cannot
/// happen for bags produced by elimination).
pub fn greedy_cover<R: Rng + ?Sized>(
    target: &BitSet,
    h: &Hypergraph,
    rng: Option<&mut R>,
) -> Vec<usize> {
    greedy_over(&candidates(target, h), target, rng)
}

/// [`greedy_cover`] over a precomputed [`candidates`] list, so a cover that
/// also runs the exact search builds its candidates once.
fn greedy_over<R: Rng + ?Sized>(
    cands: &[(usize, BitSet)],
    target: &BitSet,
    mut rng: Option<&mut R>,
) -> Vec<usize> {
    let mut uncovered = target.clone();
    let mut chosen = Vec::new();
    // the candidates of largest gain this round, in index order; one
    // buffer for every round
    let mut tied: Vec<usize> = Vec::new();
    while !uncovered.is_empty() {
        let mut best = 0;
        tied.clear();
        for (i, (_, r)) in cands.iter().enumerate() {
            let gain = r.intersection_len(&uncovered);
            if gain > best {
                best = gain;
                tied.clear();
            }
            if gain == best {
                tied.push(i);
            }
        }
        assert!(best > 0, "target not coverable by hypergraph edges");
        let pick = match rng.as_deref_mut() {
            Some(r) => tied[r.random_range(0..tied.len())],
            None => tied[0],
        };
        uncovered.difference_with(&cands[pick].1);
        chosen.push(cands[pick].0);
    }
    chosen
}

/// Size-only variant of [`greedy_cover`] for hot loops.
pub fn greedy_cover_size<R: Rng + ?Sized>(
    target: &BitSet,
    h: &Hypergraph,
    rng: Option<&mut R>,
) -> usize {
    greedy_cover(target, h, rng).len()
}

/// Exact minimum set cover by branch and bound.
///
/// Branches on the first uncovered vertex (trying each candidate covering
/// it), seeded with the greedy solution as upper bound and pruned by the
/// bound `chosen + ⌈uncovered / max_gain⌉ ≥ best`.
pub fn exact_cover(target: &BitSet, h: &Hypergraph) -> Vec<usize> {
    let cands = candidates(target, h);
    let best = greedy_over::<ghd_prng::rngs::StdRng>(&cands, target, None);
    let mut state = ExactState {
        cands: &cands,
        best,
        chosen: Vec::new(),
        limit: usize::MAX,
        budget: u64::MAX,
    };
    let uncovered = target.clone();
    state.search(uncovered);
    let mut out = state.best;
    out.sort_unstable();
    out
}

/// Size-only variant of [`exact_cover`].
pub fn exact_cover_size(target: &BitSet, h: &Hypergraph) -> usize {
    exact_cover(target, h).len()
}

/// Capped exact cover size: returns `min(optimal cover size, cap)`.
///
/// Callers that only need to know whether the cover stays below `cap` (the
/// branch-and-bound searches prune any bag whose cover reaches their
/// incumbent anyway) get an enormous extra pruning lever: every set-cover
/// branch that cannot beat `cap` is cut immediately. The second component
/// is `false` iff the internal node budget was exhausted, in which case the
/// returned size is a (still sound for pruning) upper estimate.
pub fn exact_cover_size_capped(target: &BitSet, h: &Hypergraph, cap: usize) -> (usize, bool) {
    if cap == 0 {
        return (0, true);
    }
    let cands = candidates(target, h);
    let greedy = greedy_over::<ghd_prng::rngs::StdRng>(&cands, target, None);
    let greedy_len = greedy.len();
    let mut state = ExactState {
        cands: &cands,
        best: greedy,
        chosen: Vec::new(),
        limit: greedy_len.min(cap),
        budget: 100_000,
    };
    state.search(target.clone());
    let exact = state.budget > 0;
    (state.best.len().min(state.limit).min(cap), exact)
}

/// Dispatches on [`CoverMethod`].
pub fn cover(target: &BitSet, h: &Hypergraph, method: CoverMethod) -> Vec<usize> {
    match method {
        CoverMethod::Greedy => greedy_cover::<ghd_prng::rngs::StdRng>(target, h, None),
        CoverMethod::Exact => exact_cover(target, h),
    }
}

/// Counters describing a [`CoverCache`]'s life so far.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Queries answered from the cache.
    pub hits: u64,
    /// Queries that had to run a cover computation.
    pub misses: u64,
    /// Entries dropped by capacity resets.
    pub evictions: u64,
    /// Entries currently stored.
    pub entries: usize,
}

impl CacheStats {
    /// Hits as a fraction of all queries (0 when the cache is unused).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Merges another (concurrent) cache's stats into `self` with explicit
    /// counter-vs-gauge semantics: `hits`, `misses` and `evictions` are true
    /// counters and are **summed**; `entries` is a point-in-time gauge of
    /// per-cache occupancy — summing gauges across independent caches is
    /// meaningless, so the merge keeps the **maximum**. (Per-worker values
    /// can be reported alongside when the individual gauges matter.)
    pub fn absorb_parallel(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.evictions += other.evictions;
        self.entries = self.entries.max(other.entries);
    }
}

#[derive(Clone, Copy, Debug, Default)]
struct CacheEntry {
    /// Proven optimal cover size, when known.
    exact: Option<u32>,
    /// Proven lower bound on the optimal cover size (0 = trivial).
    lower: u32,
    /// Memoized deterministic greedy cover size.
    greedy: Option<u32>,
}

impl CacheEntry {
    /// The answer the stored facts give to a capped exact query: the
    /// optimum when known, `cap` when the optimum is proven `≥ cap`.
    fn exact_hit(&self, cap: usize) -> Option<usize> {
        match self.exact {
            Some(exact) => Some((exact as usize).min(cap)),
            None => (self.lower as usize >= cap).then_some(cap),
        }
    }

    /// Records what a completed capped search that answered `s` proved.
    fn record_exact(&mut self, s: usize, cap: usize) {
        if s < cap {
            self.exact = Some(s as u32);
            self.lower = self.lower.max(s as u32);
        } else {
            // completed search found nothing below cap ⇒ optimal ≥ cap
            self.lower = self.lower.max(cap as u32);
        }
    }
}

/// One lock's share of a [`CoverCache`]: a content-keyed map of proven
/// facts and the counters of the queries that reached it.
struct Stripe {
    /// FxHash: the keys are whole `u64` words, exactly the input FxHash
    /// mixes best, and SipHash's DoS resistance buys nothing against
    /// self-generated bags.
    map: FxHashMap<Box<[u64]>, CacheEntry>,
    /// Words held by the boxed keys, for [`CoverCache::bytes`].
    key_words: usize,
    capacity: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl Stripe {
    /// Counts a probe that `found` answers (a hit) or not (a miss).
    fn count<T>(&mut self, found: Option<T>) -> Option<T> {
        if found.is_some() {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        found
    }

    /// The entry of `key`, about to record a fact; a fresh key arriving at
    /// capacity first resets the stripe.
    fn entry_mut(&mut self, key: &[u64]) -> &mut CacheEntry {
        if self.map.contains_key(key) {
            return self.map.get_mut(key).expect("checked above");
        }
        if self.map.len() >= self.capacity {
            self.evictions += self.map.len() as u64;
            self.map.clear();
            self.key_words = 0;
        }
        self.key_words += key.len();
        self.map.entry(key.into()).or_default()
    }
}

/// Transposition store for per-bag set covers, keyed on the target
/// [`BitSet`]'s backing blocks.
///
/// Branch-and-bound over elimination orderings revisits the same bag many
/// times: permutations of a prefix that eliminate the same vertex next
/// produce the identical `{v} ∪ Nᵍ(v)` bag, and capped queries repeat with
/// different caps as the incumbent tightens. The store holds only *proven*
/// facts, so cached answers are identical to recomputation and results are
/// bit-for-bit the same with the cache on or off:
///
/// * an exact size `s < cap` proven by a completed (budget-unexhausted)
///   capped search is stored as `exact`;
/// * a completed capped search that found nothing below `cap` proves
///   `optimal ≥ cap`, stored as a monotone `lower` bound;
/// * budget-exhausted results are *never* cached (they are only estimates);
/// * deterministic greedy sizes (first-maximum tie rule) are cached as-is.
///
/// The entries are split into a power-of-two number of stripes, each
/// behind its own [`Mutex`]; a query locks only the stripe its target
/// hashes to, so one store serves a single search (one stripe) or all the
/// workers of a parallel one (many). Cover computations run *outside* the
/// lock: a slow exact cover on one bag never blocks other workers probing
/// the same stripe, and the worst case is two workers computing the same
/// bag at once, which is benign because facts for a given bag are
/// identical (`exact`) or monotone (`lower`).
///
/// A stripe that reaches its share of the capacity resets in full
/// (simple, and search locality rebuilds a warm prefix within a few hundred
/// nodes); resets are reported via [`CacheStats::evictions`].
///
/// A store is valid for **one hypergraph**: keys are target bitsets only,
/// so reusing it across hypergraphs replays covers from the wrong edge set.
pub struct CoverCache {
    stripes: Box<[Mutex<Stripe>]>,
    mask: usize,
}

impl CoverCache {
    /// Default capacity: roomy enough for every bag of mid-size searches.
    pub const DEFAULT_CAPACITY: usize = 1 << 20;

    /// A store of `stripes` stripes (rounded up to a power of two, min 1)
    /// holding [`CoverCache::DEFAULT_CAPACITY`] entries in total.
    pub fn new(stripes: usize) -> Self {
        Self::with_capacity(stripes, Self::DEFAULT_CAPACITY)
    }

    /// A store of `stripes` stripes sharing `capacity` entries evenly (at
    /// least one per stripe).
    pub fn with_capacity(stripes: usize, capacity: usize) -> Self {
        let n = stripes.max(1).next_power_of_two();
        let per = (capacity / n).max(1);
        let stripe = || {
            Mutex::new(Stripe {
                map: FxHashMap::default(),
                key_words: 0,
                capacity: per,
                hits: 0,
                misses: 0,
                evictions: 0,
            })
        };
        CoverCache {
            stripes: (0..n).map(|_| stripe()).collect(),
            mask: n - 1,
        }
    }

    /// Number of stripes (a power of two).
    pub fn stripe_count(&self) -> usize {
        self.stripes.len()
    }

    fn stripe(&self, key: &[u64]) -> &Mutex<Stripe> {
        // Mix the high hash bits into the stripe index so it stays
        // decorrelated from the bucket index the stripe's own FxHash map
        // derives from the low bits.
        let h = fx_hash_words(key);
        &self.stripes[((h >> 48) as usize ^ h as usize) & self.mask]
    }

    /// A panicked worker can only have held a stripe lock across pure
    /// probe/record sections (never across a cover computation), so the
    /// protected state is never torn: recover the guard instead of
    /// propagating poison.
    fn lock(stripe: &Mutex<Stripe>) -> MutexGuard<'_, Stripe> {
        stripe.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Memoizing counterpart of [`exact_cover_size_capped`]: the same
    /// `(size, proven)` answer, plus whether the store gave it (a hit), so
    /// callers can attribute the query to the worker that made it.
    pub fn exact_cover_size_capped(
        &self,
        target: &BitSet,
        h: &Hypergraph,
        cap: usize,
    ) -> (usize, bool, bool) {
        if cap == 0 {
            return (0, true, false);
        }
        let stripe = self.stripe(target.blocks());
        {
            let mut c = Self::lock(stripe);
            let found = c.map.get(target.blocks()).and_then(|e| e.exact_hit(cap));
            if let Some(s) = c.count(found) {
                return (s, true, true);
            }
        }
        let (s, ok) = exact_cover_size_capped(target, h, cap);
        if ok {
            Self::lock(stripe).entry_mut(target.blocks()).record_exact(s, cap);
        }
        (s, ok, false)
    }

    /// Memoizing counterpart of the deterministic
    /// `greedy_cover_size::<_>(target, h, None)` (first-maximum tie rule):
    /// the same size, plus whether the store gave it (a hit).
    pub fn greedy_cover_size(&self, target: &BitSet, h: &Hypergraph) -> (usize, bool) {
        let stripe = self.stripe(target.blocks());
        {
            let mut c = Self::lock(stripe);
            let found = c.map.get(target.blocks()).and_then(|e| e.greedy);
            if let Some(g) = c.count(found) {
                return (g as usize, true);
            }
        }
        let g = greedy_cover_size::<ghd_prng::rngs::StdRng>(target, h, None);
        Self::lock(stripe).entry_mut(target.blocks()).greedy = Some(g as u32);
        (g, false)
    }

    /// Counters summed over the stripes. Unlike
    /// [`CacheStats::absorb_parallel`] (which maxes the `entries` gauge
    /// across *independent* stores), the stripes are disjoint shards of one
    /// store, so `entries` is summed too.
    pub fn stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for s in self.stripes.iter() {
            let s = Self::lock(s);
            total.hits += s.hits;
            total.misses += s.misses;
            total.evictions += s.evictions;
            total.entries += s.map.len();
        }
        total
    }

    /// Bytes reserved across the stripes: each map's slots plus the words
    /// of its boxed keys.
    pub fn bytes(&self) -> usize {
        let slot = std::mem::size_of::<CacheEntry>() + std::mem::size_of::<Box<[u64]>>();
        let word = std::mem::size_of::<u64>();
        let stripe = |s: &Mutex<Stripe>| {
            let s = Self::lock(s);
            s.map.capacity() * slot + s.key_words * word
        };
        self.stripes.iter().map(stripe).sum()
    }
}

struct ExactState<'a> {
    cands: &'a [(usize, BitSet)],
    best: Vec<usize>,
    chosen: Vec<usize>,
    /// Prune any branch that cannot produce a cover strictly below this.
    limit: usize,
    /// Remaining branch-node budget; 0 = exhausted.
    budget: u64,
}

impl ExactState<'_> {
    fn search(&mut self, uncovered: BitSet) {
        if self.budget == 0 {
            return;
        }
        self.budget -= 1;
        if uncovered.is_empty() {
            if self.chosen.len() < self.best.len() {
                self.best = self.chosen.clone();
                self.limit = self.limit.min(self.best.len());
            }
            return;
        }
        if self.chosen.len() + 1 >= self.limit.min(self.best.len()) {
            return; // even one more edge cannot beat the incumbent/cap
        }
        // lower bound: every edge covers at most `max_gain` uncovered vertices
        let max_gain = self
            .cands
            .iter()
            .map(|(_, r)| r.intersection_len(&uncovered))
            .max()
            .unwrap_or(0);
        if max_gain == 0 {
            return; // uncoverable residue (cannot happen for bag covers)
        }
        let need = uncovered.len().div_ceil(max_gain);
        if self.chosen.len() + need >= self.limit.min(self.best.len()) {
            return;
        }
        // branch on the uncovered vertex with the fewest candidates
        let branch_v = uncovered
            .iter()
            .min_by_key(|&v| {
                self.cands
                    .iter()
                    .filter(|(_, r)| r.contains(v))
                    .count()
            })
            .expect("nonempty");
        let mut options: Vec<usize> = (0..self.cands.len())
            .filter(|&i| self.cands[i].1.contains(branch_v))
            .collect();
        // try the most-covering options first
        options.sort_by_key(|&i| usize::MAX - self.cands[i].1.intersection_len(&uncovered));
        for i in options {
            let mut rest = uncovered.clone();
            rest.difference_with(&self.cands[i].1);
            self.chosen.push(self.cands[i].0);
            self.search(rest);
            self.chosen.pop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ghd_prng::rngs::StdRng;

    fn hg(n: usize, edges: &[&[usize]]) -> Hypergraph {
        Hypergraph::from_edges(n, edges.iter().map(|e| e.iter().copied()))
    }

    #[test]
    fn greedy_covers_target() {
        let h = hg(6, &[&[0, 1, 2], &[2, 3], &[3, 4, 5], &[0, 5]]);
        let target = BitSet::from_iter(6, [0, 2, 3, 5]);
        let chosen = greedy_cover::<StdRng>(&target, &h, None);
        let mut covered = BitSet::new(6);
        for e in chosen {
            covered.union_with(h.edge(e));
        }
        assert!(target.is_subset(&covered));
    }

    /// Classic greedy-trap: greedy picks the big middle set and needs 3,
    /// exact needs only 2.
    #[test]
    fn exact_beats_greedy_on_adversarial_instance() {
        // universe {0..5}; sets: {0,1,2}, {3,4,5}, {1,2,3,4}
        let h = hg(6, &[&[0, 1, 2], &[3, 4, 5], &[1, 2, 3, 4]]);
        let target = BitSet::full(6);
        let g = greedy_cover::<StdRng>(&target, &h, None);
        let x = exact_cover(&target, &h);
        assert_eq!(x.len(), 2);
        assert!(g.len() >= x.len());
        assert_eq!(x, vec![0, 1]);
    }

    #[test]
    fn exact_is_minimal_on_random_instances() {
        // brute-force cross-check on small instances
        let mut rng = StdRng::seed_from_u64(11);
        for trial in 0..30 {
            let h = ghd_hypergraph::generators::hypergraphs::random_hypergraph(
                10,
                8,
                4,
                trial as u64,
            );
            let target = BitSet::from_iter(10, (0..10).filter(|_| rng.random_range(0..2) == 0));
            if target.is_empty() {
                continue;
            }
            let exact = exact_cover(&target, &h);
            // brute force over all subsets of edges
            let m = h.num_edges();
            let mut brute = usize::MAX;
            for mask in 0u32..(1 << m) {
                let mut covered = BitSet::new(10);
                for e in 0..m {
                    if mask & (1 << e) != 0 {
                        covered.union_with(h.edge(e));
                    }
                }
                if target.is_subset(&covered) {
                    brute = brute.min(mask.count_ones() as usize);
                }
            }
            assert_eq!(exact.len(), brute, "trial {trial}");
        }
    }

    #[test]
    fn empty_target_needs_no_edges() {
        let h = hg(3, &[&[0, 1, 2]]);
        let target = BitSet::new(3);
        assert!(greedy_cover::<StdRng>(&target, &h, None).is_empty());
        assert!(exact_cover(&target, &h).is_empty());
    }

    #[test]
    #[should_panic(expected = "not coverable")]
    fn uncoverable_target_panics() {
        let h = hg(3, &[&[0]]);
        let target = BitSet::from_iter(3, [1, 2]);
        greedy_cover::<StdRng>(&target, &h, None);
    }

    #[test]
    fn cache_hits_replay_identical_values() {
        let mut total = CacheStats::default();
        for trial in 0..20u64 {
            // one cache per hypergraph: keys are target bitsets only
            let cache = CoverCache::new(1);
            let h = ghd_hypergraph::generators::hypergraphs::random_hypergraph(12, 9, 4, trial);
            let mut rng = StdRng::seed_from_u64(trial);
            for _ in 0..6 {
                let target =
                    BitSet::from_iter(12, (0..12).filter(|_| rng.random_range(0..3) == 0));
                for cap in [1, 2, 3, usize::MAX] {
                    let plain = exact_cover_size_capped(&target, &h, cap);
                    let (s, ok, _) = cache.exact_cover_size_capped(&target, &h, cap);
                    assert_eq!(plain, (s, ok), "trial {trial} cap {cap}");
                }
                let plain = greedy_cover_size::<StdRng>(&target, &h, None);
                assert_eq!(plain, cache.greedy_cover_size(&target, &h).0, "trial {trial}");
            }
            let stats = cache.stats();
            total.hits += stats.hits;
            total.misses += stats.misses;
            total.entries += stats.entries;
        }
        assert!(total.hits > 0, "repeated caps should hit: {total:?}");
        assert!(total.misses > 0);
        assert!(total.entries > 0);
    }

    #[test]
    fn absorb_parallel_sums_counters_and_maxes_the_entries_gauge() {
        let mut a = CacheStats {
            hits: 10,
            misses: 4,
            evictions: 1,
            entries: 7,
        };
        let b = CacheStats {
            hits: 5,
            misses: 6,
            evictions: 0,
            entries: 12,
        };
        a.absorb_parallel(&b);
        assert_eq!(a.hits, 15);
        assert_eq!(a.misses, 10);
        assert_eq!(a.evictions, 1);
        assert_eq!(a.entries, 12, "entries is a gauge: merged as max, not sum");
    }

    #[test]
    fn cache_counts_hits_and_misses() {
        let h = hg(6, &[&[0, 1, 2], &[3, 4, 5], &[1, 2, 3, 4]]);
        let target = BitSet::full(6);
        let cache = CoverCache::new(1);
        assert_eq!(cache.exact_cover_size_capped(&target, &h, 10), (2, true, false));
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.stats().hits, 0);
        // same bag again: exact answer replayed, including under tighter caps
        assert_eq!(cache.exact_cover_size_capped(&target, &h, 10), (2, true, true));
        assert_eq!(cache.exact_cover_size_capped(&target, &h, 2), (2, true, true));
        assert_eq!(cache.exact_cover_size_capped(&target, &h, 1), (1, true, true));
        assert_eq!(cache.stats().hits, 3);
        // greedy is a separate fact on the same key
        let g = greedy_cover_size::<StdRng>(&target, &h, None);
        assert_eq!(cache.greedy_cover_size(&target, &h), (g, false));
        assert_eq!(cache.greedy_cover_size(&target, &h), (g, true));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (4, 2, 1));
        assert!(stats.hit_rate() > 0.5);
    }

    #[test]
    fn cap_only_queries_store_lower_bounds() {
        // optimal cover of the full clique universe is 2; a cap-1 query
        // proves "≥ 1" without revealing the optimum
        let h = hg(6, &[&[0, 1, 2], &[3, 4, 5], &[1, 2, 3, 4]]);
        let target = BitSet::full(6);
        let cache = CoverCache::new(1);
        assert_eq!(cache.exact_cover_size_capped(&target, &h, 1), (1, true, false));
        // cap 1 answered again from the stored lower bound
        assert_eq!(cache.exact_cover_size_capped(&target, &h, 1), (1, true, true));
        assert_eq!(cache.stats().hits, 1);
        // a looser cap cannot be answered by `lower = 1`: recomputes
        assert_eq!(cache.exact_cover_size_capped(&target, &h, 5), (2, true, false));
        assert_eq!(cache.stats().misses, 2);
        // now exact is known and every cap hits
        assert_eq!(cache.exact_cover_size_capped(&target, &h, 1), (1, true, true));
        assert_eq!(cache.exact_cover_size_capped(&target, &h, 100), (2, true, true));
        assert_eq!(cache.stats().hits, 3);
    }

    #[test]
    fn capacity_overflow_resets_and_counts_evictions() {
        let h = hg(4, &[&[0, 1], &[2, 3], &[0, 2], &[1, 3]]);
        let cache = CoverCache::with_capacity(1, 2);
        for v in 0..4 {
            let target = BitSet::from_iter(4, [v]);
            cache.greedy_cover_size(&target, &h);
        }
        let stats = cache.stats();
        assert!(stats.evictions >= 2, "expected a capacity reset: {stats:?}");
        assert!(stats.entries <= 2);
        assert_eq!(stats.misses, 4);
    }

    #[test]
    fn bytes_count_the_boxed_keys() {
        // 130 vertices: every key is three words
        let h = hg(130, &[&[0, 64, 129], &[1, 65]]);
        let cache = CoverCache::new(1);
        assert_eq!(cache.bytes(), 0, "an unused store reserves nothing");
        cache.greedy_cover_size(&BitSet::from_iter(130, [0, 129]), &h);
        let one = cache.bytes();
        assert!(one >= 3 * 8, "the key's words are counted: {one}");
        // a second key in the same map slots adds exactly its three words
        cache.greedy_cover_size(&BitSet::from_iter(130, [1]), &h);
        assert_eq!(cache.bytes(), one + 3 * 8);
    }

    #[test]
    fn cache_zero_cap_short_circuits() {
        let h = hg(3, &[&[0, 1, 2]]);
        let target = BitSet::full(3);
        let cache = CoverCache::new(1);
        assert_eq!(cache.exact_cover_size_capped(&target, &h, 0), (0, true, false));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (0, 0));
    }

    #[test]
    fn randomized_tie_breaking_is_seed_stable() {
        let h = hg(4, &[&[0, 1], &[2, 3], &[0, 2], &[1, 3]]);
        let target = BitSet::full(4);
        let mut r1 = StdRng::seed_from_u64(3);
        let mut r2 = StdRng::seed_from_u64(3);
        assert_eq!(
            greedy_cover(&target, &h, Some(&mut r1)),
            greedy_cover(&target, &h, Some(&mut r2))
        );
    }

    #[test]
    fn striped_cache_matches_the_one_stripe_cache() {
        let mut rng = StdRng::seed_from_u64(77);
        let h = ghd_hypergraph::generators::hypergraphs::random_hypergraph(18, 14, 5, 9);
        let striped = CoverCache::new(4);
        let plain = CoverCache::new(1);
        assert_eq!((striped.stripe_count(), plain.stripe_count()), (4, 1));
        for _ in 0..400 {
            let mut target = BitSet::new(18);
            for v in 0..18 {
                if rng.random_range(0..3) == 0 {
                    target.insert(v);
                }
            }
            let cap = rng.random_range(1..6) as usize;
            assert_eq!(
                striped.exact_cover_size_capped(&target, &h, cap),
                plain.exact_cover_size_capped(&target, &h, cap)
            );
            assert_eq!(
                striped.greedy_cover_size(&target, &h),
                plain.greedy_cover_size(&target, &h)
            );
        }
        let st = striped.stats();
        assert_eq!(st, plain.stats(), "hit pattern and entries identical to one stripe");
        assert!(st.hits > 0 && st.entries > 0);
    }

    #[test]
    fn striped_cache_is_consistent_under_concurrent_hammering() {
        let h = ghd_hypergraph::generators::hypergraphs::random_hypergraph(16, 12, 4, 3);
        // at the default capacity no stripe resets; at 8 (one entry per
        // stripe) they reset constantly while the workers share them
        for capacity in [CoverCache::DEFAULT_CAPACITY, 8] {
            let striped = CoverCache::with_capacity(8, capacity);
            let workers = 4;
            std::thread::scope(|s| {
                for w in 0..workers {
                    let striped = &striped;
                    let h = &h;
                    s.spawn(move || {
                        let mut rng = StdRng::seed_from_u64(w as u64);
                        for _ in 0..300 {
                            let mut target = BitSet::new(16);
                            for v in 0..16 {
                                if rng.random_range(0..3) == 0 {
                                    target.insert(v);
                                }
                            }
                            let cap = rng.random_range(1..6) as usize;
                            let (s, ok, _) = striped.exact_cover_size_capped(&target, h, cap);
                            // the striped answer must equal fresh recomputation
                            assert_eq!((s, ok), exact_cover_size_capped(&target, h, cap));
                            let (g, _) = striped.greedy_cover_size(&target, h);
                            assert_eq!(g, greedy_cover_size::<StdRng>(&target, h, None));
                        }
                    });
                }
            });
            let st = striped.stats();
            // Every query is accounted exactly once as a hit or a miss.
            assert_eq!(st.hits + st.misses, (workers * 300 * 2) as u64, "capacity {capacity}");
            assert!(striped.bytes() > 0);
            assert_eq!(striped.stripe_count(), 8);
            if capacity == 8 {
                assert!(st.evictions > 0, "stripes reset under sharing: {st:?}");
                assert!(st.entries <= 8, "{st:?}");
            }
        }
    }
}
