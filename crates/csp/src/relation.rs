//! Relations over CSP variables with the relational-algebra operations the
//! decomposition-based solvers need: natural join, semijoin and projection.
//!
//! # Storage layout
//!
//! Tuples live in a single row-major `Vec<Value>` with stride
//! `scope.len()`: tuple `i` occupies `data[i*stride .. (i+1)*stride]`.
//! There is **no per-tuple allocation** — the engine's working set is one
//! contiguous buffer per relation, which the join/semijoin/projection
//! kernels stream over.
//!
//! # Key packing
//!
//! Every kernel condenses its key columns into a `u64` (see `KeyMode`):
//! when `arity × bits_per_value ≤ 64` the values are bit-packed directly
//! (injective — no collision handling needed); wider or larger keys fall
//! back to an FxHash of the columns with equality verification on probe.
//! Either way a hash-map operation touches a single machine word instead of
//! a heap-allocated `Vec<Value>` key.
//!
//! All kernels are deterministic: output tuple order depends only on input
//! tuple order (first-occurrence order for deduplication, probe order for
//! joins), never on hash-map iteration.

use ghd_prng::hash::{FxHashMap, FxHashSet, FxHasher};
use std::hash::Hasher as _;

/// A domain value (domains are indexed densely per variable).
pub type Value = u32;

/// A relation: a scope of variable ids plus flat row-major tuple storage.
/// Tuples have the scope's length; variables appear at the index of their
/// position in `scope`. The scope contains no duplicates.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct Relation {
    scope: Vec<usize>,
    /// Row-major tuple storage, stride = `scope.len()`.
    data: Vec<Value>,
    /// Number of tuples (kept explicit so zero-arity relations, which can
    /// arise transiently from projections, stay well-defined).
    rows: usize,
}

/// How a kernel condenses key columns into `u64`s.
#[derive(Clone, Copy, Debug)]
enum KeyMode {
    /// Each value fits in `bits` bits and `arity × bits ≤ 64`: the packed
    /// word is injective, so equal words ⇔ equal keys.
    Packed { bits: u32 },
    /// Wide or large-valued keys: FxHash of the columns; probes verify the
    /// actual column values on a hash hit.
    Hashed,
}

impl KeyMode {
    /// Picks the cheapest injective representation for `arity` key columns
    /// whose values never exceed `max_val`.
    fn choose(arity: usize, max_val: Value) -> KeyMode {
        let bits = (Value::BITS - max_val.leading_zeros()).max(1);
        if arity as u32 * bits <= 64 {
            KeyMode::Packed { bits }
        } else {
            KeyMode::Hashed
        }
    }

    /// The key of `tuple` restricted to `cols`.
    #[inline]
    fn key(self, tuple: &[Value], cols: &[usize]) -> u64 {
        match self {
            KeyMode::Packed { bits } => {
                let mut k = 0u64;
                for &c in cols {
                    k = (k << bits) | u64::from(tuple[c]);
                }
                k
            }
            KeyMode::Hashed => {
                let mut h = FxHasher::default();
                for &c in cols {
                    h.write_word(u64::from(tuple[c]));
                }
                h.finish()
            }
        }
    }
}

/// `true` iff `a` restricted to `a_cols` equals `b` restricted to `b_cols`.
#[inline]
fn key_eq(a: &[Value], a_cols: &[usize], b: &[Value], b_cols: &[usize]) -> bool {
    a_cols.iter().zip(b_cols).all(|(&ca, &cb)| a[ca] == b[cb])
}

/// Largest value appearing in the `cols` columns of `rel` (0 when empty).
fn max_in_cols(rel: &Relation, cols: &[usize]) -> Value {
    let mut m = 0;
    for t in rel.tuples() {
        for &c in cols {
            m = m.max(t[c]);
        }
    }
    m
}

/// Hash index from key to the rows carrying it, as a chained list: one
/// `u64 → head` map plus a `next` array — zero allocations per distinct key.
struct RowIndex {
    map: FxHashMap<u64, u32>,
    /// `next[i]` = previous row with the same key (`u32::MAX` terminates).
    next: Vec<u32>,
}

impl RowIndex {
    fn build(rel: &Relation, cols: &[usize], mode: KeyMode) -> RowIndex {
        let mut map: FxHashMap<u64, u32> = FxHashMap::default();
        map.reserve(rel.rows);
        let mut next = vec![u32::MAX; rel.rows];
        for (i, t) in rel.tuples().enumerate() {
            let slot = map.entry(mode.key(t, cols)).or_insert(u32::MAX);
            next[i] = *slot;
            *slot = i as u32;
        }
        RowIndex { map, next }
    }

    /// Pushes the rows matching `key` into `out` in ascending row order.
    /// `verify` re-checks column equality (needed in [`KeyMode::Hashed`]).
    #[inline]
    fn matches(&self, key: u64, out: &mut Vec<u32>, mut verify: impl FnMut(u32) -> bool) {
        out.clear();
        let mut cur = self.map.get(&key).copied().unwrap_or(u32::MAX);
        while cur != u32::MAX {
            if verify(cur) {
                out.push(cur);
            }
            cur = self.next[cur as usize];
        }
        out.reverse(); // chain is reverse insertion order
    }
}

impl Relation {
    /// Creates a relation from materialised tuples.
    ///
    /// # Panics
    /// Panics if the scope contains duplicates or a tuple has the wrong
    /// arity.
    pub fn new(scope: Vec<usize>, tuples: Vec<Vec<Value>>) -> Self {
        let arity = scope.len();
        let mut data = Vec::with_capacity(arity * tuples.len());
        let rows = tuples.len();
        for t in &tuples {
            assert_eq!(t.len(), arity, "tuple arity mismatch");
            data.extend_from_slice(t);
        }
        Self::from_flat(scope, data, rows)
    }

    /// Creates a relation directly from flat row-major storage (`rows`
    /// tuples of `scope.len()` values each).
    ///
    /// # Panics
    /// Panics if the scope contains duplicates or `data.len()` is not
    /// `rows * scope.len()`.
    pub fn from_flat(scope: Vec<usize>, data: Vec<Value>, rows: usize) -> Self {
        let mut sorted = scope.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), scope.len(), "duplicate variable in scope");
        assert_eq!(data.len(), rows * scope.len(), "flat storage size mismatch");
        Relation { scope, data, rows }
    }

    /// The full relation over `scope` given per-variable domains: the
    /// Cartesian product of the domains.
    pub fn full(scope: Vec<usize>, domains: &[Vec<Value>]) -> Self {
        let arity = scope.len();
        let rows: usize = scope.iter().map(|&v| domains[v].len()).product();
        let mut data = Vec::with_capacity(rows * arity);
        let mut odometer = vec![0usize; arity];
        for _ in 0..rows {
            for (slot, &v) in odometer.iter().zip(&scope) {
                data.push(domains[v][*slot]);
            }
            // increment the mixed-radix odometer (last column fastest)
            for c in (0..arity).rev() {
                odometer[c] += 1;
                if odometer[c] < domains[scope[c]].len() {
                    break;
                }
                odometer[c] = 0;
            }
        }
        Relation { scope, data, rows }
    }

    /// The scope (variable ids, in column order).
    pub fn scope(&self) -> &[usize] {
        &self.scope
    }

    /// Column stride of the flat storage (= arity).
    #[inline]
    fn stride(&self) -> usize {
        self.scope.len()
    }

    /// Iterates over the tuples as `&[Value]` slices (compatibility view of
    /// the flat storage).
    pub fn tuples(&self) -> Tuples<'_> {
        Tuples {
            data: &self.data,
            stride: self.stride(),
            rows: self.rows,
            i: 0,
        }
    }

    /// Tuple `i` as a slice.
    ///
    /// # Panics
    /// Panics if `i >= self.len()`.
    #[inline]
    pub fn tuple(&self, i: usize) -> &[Value] {
        assert!(i < self.rows, "tuple index out of range");
        let s = self.stride();
        &self.data[i * s..(i + 1) * s]
    }

    /// The tuples, materialised (test/diagnostic convenience — the hot
    /// paths use [`Relation::tuples`]).
    pub fn tuples_vec(&self) -> Vec<Vec<Value>> {
        self.tuples().map(<[Value]>::to_vec).collect()
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// `true` iff the relation is empty (unsatisfiable).
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Column index of variable `v`, if in scope.
    pub fn column(&self, v: usize) -> Option<usize> {
        self.scope.iter().position(|&x| x == v)
    }

    /// Natural join `self ⋈ other`.
    pub fn join(&self, other: &Relation) -> Relation {
        // shared variables and their column indices in both relations
        let shared: Vec<usize> = self
            .scope
            .iter()
            .copied()
            .filter(|&v| other.column(v).is_some())
            .collect();
        let self_cols: Vec<usize> = shared.iter().map(|&v| self.column(v).unwrap()).collect();
        let other_cols: Vec<usize> = shared.iter().map(|&v| other.column(v).unwrap()).collect();
        let extra_cols: Vec<usize> = other
            .scope
            .iter()
            .enumerate()
            .filter(|&(_, &v)| self.column(v).is_none())
            .map(|(c, _)| c)
            .collect();

        let mode = KeyMode::choose(
            shared.len(),
            max_in_cols(self, &self_cols).max(max_in_cols(other, &other_cols)),
        );
        let index = RowIndex::build(other, &other_cols, mode);

        let mut scope = self.scope.clone();
        scope.extend(extra_cols.iter().map(|&c| other.scope[c]));
        let out_stride = scope.len();
        let mut data: Vec<Value> = Vec::new();
        let mut rows = 0usize;
        let mut matches: Vec<u32> = Vec::new();
        for t in self.tuples() {
            let key = mode.key(t, &self_cols);
            index.matches(key, &mut matches, |j| match mode {
                KeyMode::Packed { .. } => true,
                KeyMode::Hashed => key_eq(t, &self_cols, other.tuple(j as usize), &other_cols),
            });
            for &j in &matches {
                let u = other.tuple(j as usize);
                data.extend_from_slice(t);
                data.extend(extra_cols.iter().map(|&c| u[c]));
                rows += 1;
            }
        }
        debug_assert_eq!(data.len(), rows * out_stride);
        Relation { scope, data, rows }
    }

    /// Semijoin `self ⋉ other`: keeps the tuples of `self` that agree with
    /// at least one tuple of `other` on the shared variables. Returns `true`
    /// if any tuple was removed. Runs in place over the flat storage.
    pub fn semijoin(&mut self, other: &Relation) -> bool {
        let shared: Vec<usize> = self
            .scope
            .iter()
            .copied()
            .filter(|&v| other.column(v).is_some())
            .collect();
        if shared.is_empty() {
            if other.is_empty() && !self.is_empty() {
                self.data.clear();
                self.rows = 0;
                return true;
            }
            return false;
        }
        let self_cols: Vec<usize> = shared.iter().map(|&v| self.column(v).unwrap()).collect();
        let other_cols: Vec<usize> = shared.iter().map(|&v| other.column(v).unwrap()).collect();
        let mode = KeyMode::choose(
            shared.len(),
            max_in_cols(self, &self_cols).max(max_in_cols(other, &other_cols)),
        );
        // packed keys are injective → a set suffices; hashed keys keep the
        // chained index so probes can verify real column equality
        let index = match mode {
            KeyMode::Packed { .. } => {
                let mut keys: FxHashSet<u64> = FxHashSet::default();
                keys.reserve(other.rows);
                for t in other.tuples() {
                    keys.insert(mode.key(t, &other_cols));
                }
                Err(keys)
            }
            KeyMode::Hashed => Ok(RowIndex::build(other, &other_cols, mode)),
        };

        let stride = self.stride();
        let before = self.rows;
        let mut w = 0usize;
        for r in 0..self.rows {
            let start = r * stride;
            let keep = {
                let t = &self.data[start..start + stride];
                let key = mode.key(t, &self_cols);
                match &index {
                    Err(keys) => keys.contains(&key),
                    Ok(idx) => {
                        let mut cur = idx.map.get(&key).copied().unwrap_or(u32::MAX);
                        let mut hit = false;
                        while cur != u32::MAX {
                            if key_eq(t, &self_cols, other.tuple(cur as usize), &other_cols) {
                                hit = true;
                                break;
                            }
                            cur = idx.next[cur as usize];
                        }
                        hit
                    }
                }
            };
            if keep {
                if w != r {
                    self.data.copy_within(start..start + stride, w * stride);
                }
                w += 1;
            }
        }
        self.rows = w;
        self.data.truncate(w * stride);
        w != before
    }

    /// Projection `π_vars(self)` with duplicate elimination
    /// (first-occurrence order).
    ///
    /// # Panics
    /// Panics if some requested variable is not in scope.
    pub fn project(&self, vars: &[usize]) -> Relation {
        let cols: Vec<usize> = vars
            .iter()
            .map(|&v| self.column(v).expect("projection variable not in scope"))
            .collect();
        let mode = KeyMode::choose(cols.len(), max_in_cols(self, &cols));
        let out_stride = cols.len();
        let mut data: Vec<Value> = Vec::new();
        let mut rows = 0usize;
        match mode {
            KeyMode::Packed { .. } => {
                let mut seen: FxHashSet<u64> = FxHashSet::default();
                for t in self.tuples() {
                    if seen.insert(mode.key(t, &cols)) {
                        data.extend(cols.iter().map(|&c| t[c]));
                        rows += 1;
                    }
                }
            }
            KeyMode::Hashed => {
                // bucket output-row ids by hash; verify on collision
                let mut seen: FxHashMap<u64, Vec<u32>> = FxHashMap::default();
                let identity: Vec<usize> = (0..out_stride).collect();
                for t in self.tuples() {
                    let key = mode.key(t, &cols);
                    let bucket = seen.entry(key).or_default();
                    let dup = bucket.iter().any(|&o| {
                        let s = o as usize * out_stride;
                        key_eq(t, &cols, &data[s..s + out_stride], &identity)
                    });
                    if !dup {
                        bucket.push(rows as u32);
                        data.extend(cols.iter().map(|&c| t[c]));
                        rows += 1;
                    }
                }
            }
        }
        Relation {
            scope: vars.to_vec(),
            data,
            rows,
        }
    }

    /// Removes duplicate tuples in place (first-occurrence order). Returns
    /// `true` if any tuple was removed.
    pub fn dedup(&mut self) -> bool {
        let vars = self.scope.clone();
        let deduped = self.project(&vars);
        let changed = deduped.rows != self.rows;
        *self = deduped;
        changed
    }

    /// Keeps only tuples compatible with a partial assignment
    /// (`assignment[v] = Some(val)`).
    pub fn filter_assignment(&self, assignment: &[Option<Value>]) -> Relation {
        let stride = self.stride();
        // columns that are actually pinned by the assignment
        let pinned: Vec<(usize, Value)> = self
            .scope
            .iter()
            .enumerate()
            .filter_map(|(c, &v)| assignment[v].map(|a| (c, a)))
            .collect();
        let mut data: Vec<Value> = Vec::new();
        let mut rows = 0usize;
        for t in self.tuples() {
            if pinned.iter().all(|&(c, a)| t[c] == a) {
                data.extend_from_slice(t);
                rows += 1;
            }
        }
        debug_assert_eq!(data.len(), rows * stride);
        Relation {
            scope: self.scope.clone(),
            data,
            rows,
        }
    }
}

/// Iterator over a relation's tuples as `&[Value]` slices.
pub struct Tuples<'a> {
    data: &'a [Value],
    stride: usize,
    rows: usize,
    i: usize,
}

impl<'a> Iterator for Tuples<'a> {
    type Item = &'a [Value];

    #[inline]
    fn next(&mut self) -> Option<&'a [Value]> {
        if self.i >= self.rows {
            return None;
        }
        let s = self.stride;
        let start = self.i * s;
        self.i += 1;
        Some(&self.data[start..start + s])
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.rows - self.i;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for Tuples<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(scope: &[usize], tuples: &[&[Value]]) -> Relation {
        Relation::new(scope.to_vec(), tuples.iter().map(|t| t.to_vec()).collect())
    }

    #[test]
    fn join_on_shared_variable() {
        let a = r(&[0, 1], &[&[1, 2], &[1, 3], &[2, 2]]);
        let b = r(&[1, 2], &[&[2, 9], &[3, 8]]);
        let j = a.join(&b);
        assert_eq!(j.scope(), &[0, 1, 2]);
        let mut tuples = j.tuples_vec();
        tuples.sort();
        assert_eq!(tuples, vec![vec![1, 2, 9], vec![1, 3, 8], vec![2, 2, 9]]);
    }

    #[test]
    fn join_without_shared_variables_is_cross_product() {
        let a = r(&[0], &[&[1], &[2]]);
        let b = r(&[1], &[&[7]]);
        let j = a.join(&b);
        assert_eq!(j.len(), 2);
        assert_eq!(j.scope(), &[0, 1]);
    }

    #[test]
    fn join_preserves_probe_order_and_duplicate_matches() {
        let a = r(&[0], &[&[5], &[6], &[5]]);
        let b = r(&[0, 1], &[&[5, 1], &[5, 2], &[6, 3]]);
        let j = a.join(&b);
        // per probe tuple, matches come back in other's tuple order
        assert_eq!(
            j.tuples_vec(),
            vec![vec![5, 1], vec![5, 2], vec![6, 3], vec![5, 1], vec![5, 2]]
        );
    }

    #[test]
    fn semijoin_removes_unsupported_tuples() {
        let mut a = r(&[0, 1], &[&[1, 2], &[1, 3], &[2, 2]]);
        let b = r(&[1], &[&[2]]);
        assert!(a.semijoin(&b));
        assert_eq!(a.tuples_vec(), vec![vec![1, 2], vec![2, 2]]);
        assert!(!a.semijoin(&b)); // idempotent
    }

    #[test]
    fn semijoin_disjoint_scopes_checks_emptiness_only() {
        let mut a = r(&[0], &[&[1]]);
        let empty = Relation::new(vec![5], vec![]);
        assert!(a.semijoin(&empty));
        assert!(a.is_empty());
    }

    #[test]
    fn projection_deduplicates() {
        let a = r(&[0, 1], &[&[1, 2], &[1, 3], &[2, 2]]);
        let p = a.project(&[0]);
        assert_eq!(p.tuples_vec(), vec![vec![1], vec![2]]);
    }

    #[test]
    fn full_relation_is_cartesian_product() {
        let domains = vec![vec![0, 1], vec![0, 1, 2]];
        let f = Relation::full(vec![0, 1], &domains);
        assert_eq!(f.len(), 6);
        // lexicographic odometer order, last column fastest
        assert_eq!(f.tuple(0), &[0, 0]);
        assert_eq!(f.tuple(1), &[0, 1]);
        assert_eq!(f.tuple(5), &[1, 2]);
    }

    #[test]
    fn filter_by_partial_assignment() {
        let a = r(&[0, 1], &[&[1, 2], &[1, 3], &[2, 2]]);
        let mut asg = vec![None, None];
        asg[0] = Some(1);
        let f = a.filter_assignment(&asg);
        assert_eq!(f.len(), 2);
    }

    #[test]
    fn dedup_removes_repeats_in_place() {
        let mut a = r(&[0, 1], &[&[1, 2], &[1, 2], &[2, 2], &[1, 2]]);
        assert!(a.dedup());
        assert_eq!(a.tuples_vec(), vec![vec![1, 2], vec![2, 2]]);
        assert!(!a.dedup());
    }

    #[test]
    #[should_panic(expected = "duplicate variable")]
    fn duplicate_scope_rejected() {
        let _ = Relation::new(vec![0, 0], vec![]);
    }

    #[test]
    fn key_mode_switches_to_hashing_on_wide_or_large_keys() {
        assert!(matches!(KeyMode::choose(8, 255), KeyMode::Packed { bits: 8 }));
        assert!(matches!(KeyMode::choose(9, 255), KeyMode::Hashed));
        assert!(matches!(KeyMode::choose(2, u32::MAX), KeyMode::Packed { bits: 32 }));
        assert!(matches!(KeyMode::choose(3, u32::MAX), KeyMode::Hashed));
        assert!(matches!(KeyMode::choose(0, 0), KeyMode::Packed { .. }));
    }

    /// Kernels agree with the naive reference engine on random relations,
    /// forcing both key modes (small dense values → packed, huge sparse
    /// values → hashed).
    #[test]
    fn kernels_match_naive_reference_on_random_relations() {
        use crate::naive::NaiveRelation;
        use ghd_prng::rngs::StdRng;
        use ghd_prng::RngExt;
        for seed in 0..40u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let wide = seed % 2 == 1; // odd seeds exercise the hashed path
            let value = |rng: &mut StdRng| -> Value {
                if wide {
                    rng.random_range(0..4u32) * 0x1000_0000 + rng.random_range(0..4u32)
                } else {
                    rng.random_range(0..4u32)
                }
            };
            let arity_a = rng.random_range(1..=3usize);
            let arity_b = rng.random_range(1..=3usize);
            let scope_a: Vec<usize> = (0..arity_a).collect();
            let overlap = rng.random_range(0..=arity_a.min(arity_b));
            let scope_b: Vec<usize> =
                (arity_a - overlap..arity_a - overlap + arity_b).collect();
            let gen_tuples = |rng: &mut StdRng, arity: usize| -> Vec<Vec<Value>> {
                (0..rng.random_range(0..30usize))
                    .map(|_| (0..arity).map(|_| value(rng)).collect())
                    .collect()
            };
            let ta = gen_tuples(&mut rng, arity_a);
            let tb = gen_tuples(&mut rng, arity_b);
            let a = Relation::new(scope_a.clone(), ta.clone());
            let b = Relation::new(scope_b.clone(), tb.clone());
            let na = NaiveRelation::new(scope_a.clone(), ta);
            let nb = NaiveRelation::new(scope_b.clone(), tb);

            // join: identical scope, tuple multiset AND order
            let j = a.join(&b);
            let nj = na.join(&nb);
            assert_eq!(j.scope(), nj.scope(), "seed {seed}");
            assert_eq!(j.tuples_vec(), nj.tuples().to_vec(), "seed {seed}");

            // semijoin: identical survivors in order
            let mut a2 = a.clone();
            let mut na2 = na.clone();
            assert_eq!(a2.semijoin(&b), na2.semijoin(&nb), "seed {seed}");
            assert_eq!(a2.tuples_vec(), na2.tuples().to_vec(), "seed {seed}");

            // projection onto a random scope prefix
            if !scope_a.is_empty() {
                let k = rng.random_range(1..=scope_a.len());
                let vars: Vec<usize> = scope_a[..k].to_vec();
                assert_eq!(
                    a.project(&vars).tuples_vec(),
                    na.project(&vars).tuples().to_vec(),
                    "seed {seed}"
                );
            }
        }
    }
}
