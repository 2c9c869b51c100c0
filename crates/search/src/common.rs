//! Shared plumbing for the exact anytime algorithms: **global** resource
//! budgets, the per-worker ticking view onto them, the search telemetry
//! layer, and the uniform result type.
//!
//! # Budget semantics
//!
//! A [`SearchLimits`] describes *one* budget for *one* search run — not one
//! budget per worker. [`Budget`] is the shared realisation: a single
//! wall-clock deadline plus a single atomic pool of node credits that every
//! worker draws from. `bb_tw_parallel`/`bb_ghw_parallel` hand each
//! work-stealing worker a [`Ticker`] view onto the *same* budget, so a
//! `time_limit` of T finishes in O(T) wall-clock and a `max_nodes` of N
//! expands at most N states **in total**, for any thread count. (Before
//! this layer each worker owned a private ticker, silently inflating the
//! budget by the number of workers.)
//!
//! # Telemetry
//!
//! [`SearchStats`] carries the anytime trajectory ((elapsed, ub, lb)
//! incumbent samples), per-rule prune counters, A\* heap/seen high-water
//! marks and per-worker cover-cache stats. Collection is gated by
//! [`SearchLimits::collect_stats`] and is *behaviourally free*: the
//! collectors only record — they never influence expansion order, bounds or
//! node accounting — and the no-op path is a single branch on a dead
//! `Option`. Tests assert bit-identical `upper_bound` / `lower_bound` /
//! `ordering` / `nodes_expanded` with stats on and off.

use ghd_core::setcover::CacheStats;
use ghd_par::WorkerFault;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A cooperative cancellation handle threaded into a search [`Budget`].
///
/// The default token is *inert*: it can never fire, costs nothing to
/// check, and keeps `SearchLimits::default()` meaning "run to
/// completion". An armed token wraps a shared flag that any holder — a
/// daemon's `cancel` verb, a signal handler, a test — can flip;
/// in-flight searches observe it on the **existing** periodic deadline
/// check (every 16th expansion), so cancellation adds zero new hot-path
/// cost. Like budget expiry, cancellation is sticky and global: one
/// observation stops every worker at its next check, and the search
/// reports its certified anytime bounds exactly as if the clock had run
/// out.
#[derive(Clone, Debug, Default)]
pub struct CancelToken(Option<Arc<AtomicBool>>);

impl CancelToken {
    /// A token that can actually be cancelled.
    pub fn arm() -> Self {
        CancelToken(Some(Arc::new(AtomicBool::new(false))))
    }

    /// Wraps an existing shared flag (e.g. a daemon's per-request flag),
    /// so callers outside this crate can own the storage.
    pub fn from_flag(flag: Arc<AtomicBool>) -> Self {
        CancelToken(Some(flag))
    }

    /// Requests cancellation. A no-op on an inert token.
    pub fn cancel(&self) {
        if let Some(flag) = &self.0 {
            flag.store(true, Ordering::Relaxed);
        }
    }

    /// `true` once cancellation was requested (always `false` for inert).
    pub fn is_cancelled(&self) -> bool {
        self.0.as_ref().is_some_and(|f| f.load(Ordering::Relaxed))
    }
}

/// Resource limits for a search run. Both algorithm families in the thesis
/// are *anytime*: when a limit is hit they report the best upper bound found
/// and a proven lower bound (§5.3).
///
/// The limits are **global per run**: parallel searches share one deadline
/// and one node pool across all workers (see [`Budget`]).
#[derive(Clone, Debug, Default)]
pub struct SearchLimits {
    /// Wall-clock budget (the thesis used one hour per run).
    pub time_limit: Option<Duration>,
    /// Cap on search-state expansions, **summed over all workers**
    /// (deterministic alternative to time).
    pub max_nodes: Option<u64>,
    /// Collect [`SearchStats`] telemetry (incumbent timeline, prune
    /// counters, high-water marks). Off by default; results are
    /// bit-identical either way.
    pub collect_stats: bool,
    /// Cooperative cancellation handle. Inert by default; when armed, a
    /// cancel stops the run exactly like a wall-clock expiry (anytime
    /// bounds reported, sticky across all workers).
    pub cancel: CancelToken,
}

impl SearchLimits {
    /// No limits: run to completion (exact result guaranteed).
    pub fn unlimited() -> Self {
        SearchLimits::default()
    }

    /// Wall-clock limit only.
    pub fn with_time(d: Duration) -> Self {
        SearchLimits {
            time_limit: Some(d),
            ..SearchLimits::default()
        }
    }

    /// Node-expansion limit only.
    pub fn with_nodes(n: u64) -> Self {
        SearchLimits {
            max_nodes: Some(n),
            ..SearchLimits::default()
        }
    }

    /// Same limits with telemetry collection switched on/off.
    pub fn stats(mut self, on: bool) -> Self {
        self.collect_stats = on;
        self
    }

    /// Same limits with a cancellation token attached.
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = token;
        self
    }
}

/// Node credits a [`Ticker`] reserves from the shared pool per refill.
/// Small enough that a worker cannot strand a meaningful slice of the
/// budget, large enough that the atomic is off the per-node hot path.
const CREDIT_BATCH: u64 = 64;

/// One shared budget for a whole search run: a single start instant /
/// deadline and a single atomic node pool. Workers interact with it through
/// [`Budget::worker`] tickers; expiry is sticky and global, so one worker
/// hitting the deadline stops every other worker at its next check.
pub struct Budget {
    start: Instant,
    deadline: Option<Instant>,
    /// Remaining node credits (absent = unlimited).
    pool: Option<AtomicU64>,
    /// Sticky global expiry flag (any cause; for reporting).
    expired: AtomicBool,
    /// Sticky wall-clock expiry. Separate from `expired` because a deadline
    /// must stop *every* worker immediately, while pool exhaustion only
    /// stops workers once they cannot refill — a worker still holding batch
    /// credits is entitled to spend them (the pool already accounted them).
    deadline_hit: AtomicBool,
    /// Cooperative cancellation handle (inert unless the caller armed it).
    cancel: CancelToken,
    /// Sticky record that expiry was *caused* by cancellation, so callers
    /// can label the outcome `cancelled` rather than `budget expired`.
    cancelled: AtomicBool,
    /// Telemetry collection flag, carried alongside the budget so searches
    /// need only the limits to configure themselves.
    collect_stats: bool,
}

impl Budget {
    /// A fresh budget; the clock starts now.
    pub fn new(limits: &SearchLimits) -> Self {
        let start = Instant::now();
        Budget {
            start,
            deadline: limits.time_limit.map(|t| start + t),
            pool: limits.max_nodes.map(AtomicU64::new),
            expired: AtomicBool::new(false),
            deadline_hit: AtomicBool::new(false),
            cancel: limits.cancel.clone(),
            cancelled: AtomicBool::new(false),
            collect_stats: limits.collect_stats,
        }
    }

    /// A per-worker ticking view onto this budget.
    pub fn worker(&self) -> Ticker<'_> {
        Ticker {
            budget: self,
            nodes: 0,
            credits: 0,
            check_mask: 0xF,
            expired: false,
        }
    }

    /// Whether telemetry collection was requested.
    pub fn collect_stats(&self) -> bool {
        self.collect_stats
    }

    /// Time elapsed since the budget was created.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// `true` once any worker observed expiry.
    pub fn expired(&self) -> bool {
        self.expired.load(Ordering::Relaxed)
    }

    /// `true` iff the run was stopped by cancellation (a cancelled run is
    /// also [`expired`](Budget::expired); the converse does not hold).
    pub fn cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Relaxed)
    }

    /// Checks the sticky stop flags, the cancel token, and the clock
    /// itself; marks a hit globally (stopping every worker at its next
    /// check). Cancellation rides the wall-clock path — a cancel must
    /// stop every worker immediately, exactly like a deadline, not just
    /// starve refills like pool exhaustion.
    fn check_deadline(&self) -> bool {
        if self.deadline_hit.load(Ordering::Relaxed) {
            return true;
        }
        if self.cancel.is_cancelled() {
            self.cancelled.store(true, Ordering::Relaxed);
            self.deadline_hit.store(true, Ordering::Relaxed);
            self.expired.store(true, Ordering::Relaxed);
            return true;
        }
        if let Some(d) = self.deadline {
            if Instant::now() >= d {
                self.deadline_hit.store(true, Ordering::Relaxed);
                self.expired.store(true, Ordering::Relaxed);
                return true;
            }
        }
        false
    }

    /// Reserves up to `want` node credits; 0 means the pool is exhausted
    /// (expiry is then marked globally).
    fn acquire(&self, want: u64) -> u64 {
        let Some(pool) = &self.pool else {
            return want;
        };
        let got = pool
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |left| {
                Some(left - left.min(want))
            })
            .map_or(0, |left| left.min(want));
        if got == 0 {
            self.expired.store(true, Ordering::Relaxed);
        }
        got
    }

    /// Returns unused credits to the pool (worker finished its subtree).
    fn release(&self, credits: u64) {
        if credits > 0 {
            if let Some(pool) = &self.pool {
                pool.fetch_add(credits, Ordering::Relaxed);
            }
        }
    }
}

/// A per-worker view onto a shared [`Budget`]: counts this worker's
/// expansions, draws node credits from the global pool in batches, and
/// checks the wall clock only every few events to keep `Instant::now` off
/// the hot path.
pub struct Ticker<'a> {
    budget: &'a Budget,
    nodes: u64,
    credits: u64,
    check_mask: u64,
    expired: bool,
}

impl Ticker<'_> {
    /// Registers one expansion; returns `true` while within budget. A
    /// rejected expansion is **not counted**: after expiry [`Ticker::nodes`]
    /// never exceeds the node budget (summed across workers).
    pub fn tick(&mut self) -> bool {
        if self.expired {
            return false;
        }
        // periodic check: sticky deadline flag + wall clock
        if self.nodes & self.check_mask == 0 && self.budget.check_deadline() {
            self.expired = true;
            return false;
        }
        // node credits: refill from the shared pool in batches
        if self.budget.pool.is_some() {
            if self.credits == 0 {
                self.credits = self.budget.acquire(CREDIT_BATCH);
                if self.credits == 0 {
                    self.expired = true;
                    return false;
                }
            }
            self.credits -= 1;
        }
        self.nodes += 1;
        true
    }

    /// `true` once this worker observed expiry.
    pub fn expired(&self) -> bool {
        self.expired
    }

    /// Expansions performed by **this worker** (counted ticks only).
    pub fn nodes(&self) -> u64 {
        self.nodes
    }

    /// Time elapsed since the shared budget was created.
    pub fn elapsed(&self) -> Duration {
        self.budget.elapsed()
    }
}

impl Drop for Ticker<'_> {
    fn drop(&mut self) {
        // hand unused credits back so sibling workers can spend them
        self.budget.release(self.credits);
        self.credits = 0;
    }
}

/// One point of the anytime trajectory: the bounds held at `elapsed`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IncumbentSample {
    /// Time since the search (budget) started.
    pub elapsed: Duration,
    /// Best upper bound held at that moment.
    pub upper_bound: usize,
    /// Best proven lower bound held at that moment.
    pub lower_bound: usize,
}

/// Per-rule prune counters. Which fields a search populates depends on the
/// algorithm (BB vs A\*) and the width measure (tw vs ghw); unused fields
/// stay 0.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PruneCounters {
    /// Simplicial / strongly-almost-simplicial reductions applied (§8.2 /
    /// §4.4.3): states whose child list collapsed to one forced vertex.
    pub simplicial: u64,
    /// Children excluded by pruning rule 2 (non-adjacent swaps, §4.4.4 /
    /// §8.3), summed over all expansions.
    pub pr2_filtered: u64,
    /// Subtrees closed by PR1 (§4.4.5) or its GHW analogue (residual vertex
    /// set coverable within the current cost).
    pub pr1_closures: u64,
    /// Children cut because their f-value reached the incumbent.
    pub f_prunes: u64,
    /// A\* duplicate-detection hits (state dominated by a cheaper visit of
    /// the same eliminated set).
    pub dominance_hits: u64,
    /// Bag covers whose internal branch-and-bound exhausted its budget
    /// (result degraded to an upper estimate).
    pub capped_covers: u64,
}

impl PruneCounters {
    fn absorb(&mut self, o: &PruneCounters) {
        self.simplicial += o.simplicial;
        self.pr2_filtered += o.pr2_filtered;
        self.pr1_closures += o.pr1_closures;
        self.f_prunes += o.f_prunes;
        self.dominance_hits += o.dominance_hits;
        self.capped_covers += o.capped_covers;
    }
}

/// Telemetry of one search run (see [`SearchLimits::collect_stats`]).
///
/// For parallel searches the counters are summed over workers, incumbent
/// samples are merged in elapsed order (all workers share the budget's
/// clock), high-water marks take the max, and `worker_caches` keeps one
/// entry per worker (in root-child order) so the merged
/// [`SearchResult::cover_cache`] gauge semantics stay auditable.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Incumbent timeline: a sample at the root (the heuristic bounds) plus
    /// one per improvement of either bound.
    pub incumbents: Vec<IncumbentSample>,
    /// Per-rule prune counters.
    pub prunes: PruneCounters,
    /// A\* open-list high-water mark (0 for the BB searches).
    pub open_peak: u64,
    /// A\* seen-set high-water mark (0 for the BB searches).
    pub seen_peak: u64,
    /// Peak bytes reserved by the A\* open list (bucket queue; 0 for BB).
    pub open_peak_bytes: u64,
    /// Peak bytes reserved by the A\* closed set (state interner plus its
    /// dense g-side-table) and the measure's worker state (for ghw its
    /// cover store, keys included); for BB only parallel runs report it.
    pub seen_peak_bytes: u64,
    /// Per-worker cover-cache stats (parallel BB-ghw; empty elsewhere).
    pub worker_caches: Vec<CacheStats>,
    /// Per-worker work-stealing counters (parallel BB searches; empty
    /// elsewhere), one entry per worker in worker order.
    pub worker_steals: Vec<StealCounters>,
    /// `true` iff a bucket queue observed a push below its advancing floor
    /// (a broken pathmax-monotonicity invariant, detected in release builds
    /// too). The push is clamped so it still pops, but pop order is no
    /// longer proven heap-equivalent: the search withdraws its exactness
    /// claim and reports the conservative root lower bound.
    pub queue_degraded: bool,
    /// Contained worker panics observed during the run (parallel searches
    /// only; each record names the worker, the task id and the stringified
    /// panic payload). Mirrors [`SearchResult::faults`], which
    /// is populated even when telemetry is off.
    pub faults: Vec<WorkerFault>,
}

/// Per-worker counters of the work-stealing scheduler. All counters are
/// attributed to the **executing** worker: a task published by worker 0 but
/// run by worker 3 counts in worker 3's `executed`/`stolen`, never twice.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StealCounters {
    /// Subproblems this worker split off onto its own deque.
    pub published: u64,
    /// Tasks this worker ran to completion (own, stolen and retried alike).
    pub executed: u64,
    /// Of `executed`, tasks taken from another worker's deque.
    pub stolen: u64,
    /// Of `executed`, second attempts at a task whose first run faulted.
    pub retried: u64,
}

impl SearchStats {
    /// Merges per-worker stats into one run-level record: counters summed,
    /// samples interleaved by elapsed time, peaks maxed.
    pub fn merge<I: IntoIterator<Item = SearchStats>>(parts: I) -> SearchStats {
        let mut out = SearchStats::default();
        for p in parts {
            out.prunes.absorb(&p.prunes);
            out.incumbents.extend(p.incumbents);
            out.open_peak = out.open_peak.max(p.open_peak);
            out.seen_peak = out.seen_peak.max(p.seen_peak);
            out.open_peak_bytes = out.open_peak_bytes.max(p.open_peak_bytes);
            out.seen_peak_bytes = out.seen_peak_bytes.max(p.seen_peak_bytes);
            out.worker_caches.extend(p.worker_caches);
            out.worker_steals.extend(p.worker_steals);
            out.queue_degraded |= p.queue_degraded;
            out.faults.extend(p.faults);
        }
        out.incumbents.sort_by_key(|s| s.elapsed);
        out.faults.sort_by_key(|f| f.task);
        out
    }
}

/// Internal telemetry collector: a dead `Option` when disabled, so the
/// enabled-check is one branch and the disabled path allocates nothing.
/// Recording never feeds back into the search (bit-identical results on or
/// off).
pub(crate) struct Telemetry {
    inner: Option<Box<SearchStats>>,
}

impl Telemetry {
    pub fn new(enabled: bool) -> Self {
        Telemetry {
            inner: enabled.then(|| Box::new(SearchStats::default())),
        }
    }

    /// Whether collection is enabled (gate for non-trivial measurements).
    #[inline]
    pub fn on(&self) -> bool {
        self.inner.is_some()
    }

    /// Records an incumbent sample `(elapsed, ub, lb)`.
    #[inline]
    pub fn sample(&mut self, elapsed: Duration, ub: usize, lb: usize) {
        if let Some(s) = &mut self.inner {
            s.incumbents.push(IncumbentSample {
                elapsed,
                upper_bound: ub,
                lower_bound: lb,
            });
        }
    }

    /// Bumps a prune counter.
    #[inline]
    pub fn prune(&mut self, f: impl FnOnce(&mut PruneCounters)) {
        if let Some(s) = &mut self.inner {
            f(&mut s.prunes);
        }
    }

    /// Updates the A\* high-water marks (entry counts and reserved bytes).
    /// The byte figures can cost a structure walk to compute, so callers
    /// should evaluate them only under an [`Telemetry::on`] gate.
    #[inline]
    pub fn peaks(&mut self, open: usize, seen: usize, open_bytes: usize, seen_bytes: usize) {
        if let Some(s) = &mut self.inner {
            s.open_peak = s.open_peak.max(open as u64);
            s.seen_peak = s.seen_peak.max(seen as u64);
            s.open_peak_bytes = s.open_peak_bytes.max(open_bytes as u64);
            s.seen_peak_bytes = s.seen_peak_bytes.max(seen_bytes as u64);
        }
    }

    /// Appends one worker's cover-cache stats.
    #[inline]
    pub fn cache(&mut self, stats: CacheStats) {
        if let Some(s) = &mut self.inner {
            s.worker_caches.push(stats);
        }
    }

    /// Applies an arbitrary update (degradation flags and similar one-off
    /// markers) when collection is enabled.
    #[inline]
    pub fn note(&mut self, f: impl FnOnce(&mut SearchStats)) {
        if let Some(s) = &mut self.inner {
            f(s);
        }
    }

    /// Finalises into the result's optional stats.
    pub fn finish(self) -> Option<SearchStats> {
        self.inner.map(|b| *b)
    }
}

/// Completes a best suffix into a full elimination ordering (front:
/// not-yet-eliminated vertices in index order, back: the suffix reversed).
/// Falls back to `fallback` when no suffix was recorded.
pub(crate) fn complete_ordering(n: usize, best_suffix: &[usize], fallback: Vec<usize>) -> Vec<usize> {
    if best_suffix.is_empty() {
        return fallback;
    }
    let mut in_suffix = vec![false; n];
    for &v in best_suffix {
        in_suffix[v] = true;
    }
    let mut order: Vec<usize> = (0..n).filter(|&v| !in_suffix[v]).collect();
    order.extend(best_suffix.iter().rev());
    order
}

/// The anytime lower bound after an expiry: everything explored is bounded
/// by `ub`, everything still open by the expiry floor (the minimum f-value
/// left on the frontier), and the root heuristic bound always holds.
pub(crate) fn anytime_lb(root_lb: usize, expiry_floor: usize, ub: usize) -> usize {
    root_lb.max(expiry_floor.min(ub))
}

/// The outcome of a width search (treewidth or generalized hypertree width).
#[derive(Clone, Debug)]
pub struct SearchResult {
    /// Best width achieved by a complete elimination ordering.
    pub upper_bound: usize,
    /// Proven lower bound on the optimal width.
    pub lower_bound: usize,
    /// `true` iff `upper_bound == lower_bound` was *proven* (search finished
    /// or the bounds met) — then `upper_bound` is the exact width.
    pub exact: bool,
    /// An elimination ordering realising `upper_bound`, when one was
    /// materialised.
    pub ordering: Option<Vec<usize>>,
    /// Search states expanded (summed over workers; never exceeds
    /// [`SearchLimits::max_nodes`]).
    pub nodes_expanded: u64,
    /// Wall-clock time spent.
    pub elapsed: Duration,
    /// Set-cover transposition cache counters, for searches that ran one
    /// (`None` for cache-less searches, e.g. the treewidth algorithms).
    /// For parallel runs this is the cross-worker merge: `hits`, `misses`
    /// and `evictions` are true counters and are **summed**; `entries` is a
    /// gauge and reports the **maximum** across workers (per-worker values
    /// live in [`SearchStats::worker_caches`]).
    pub cover_cache: Option<CacheStats>,
    /// Telemetry, when requested via [`SearchLimits::collect_stats`].
    pub stats: Option<SearchStats>,
    /// Contained worker panics (always populated, telemetry on or off).
    /// Empty for a clean run; a non-empty list means the result is still
    /// valid — every faulted task was retried once by its publisher or its
    /// bound degraded soundly — but the process hosted a panicking worker
    /// and should say so.
    pub faults: Vec<WorkerFault>,
}

impl SearchResult {
    /// The exact width if proven.
    pub fn width(&self) -> Option<usize> {
        self.exact.then_some(self.upper_bound)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ticker_of(budget: &Budget) -> Ticker<'_> {
        budget.worker()
    }

    #[test]
    fn node_limit_expires_without_overcount() {
        let budget = Budget::new(&SearchLimits::with_nodes(3));
        let mut t = ticker_of(&budget);
        assert!(t.tick());
        assert!(t.tick());
        assert!(t.tick());
        assert!(!t.tick());
        assert!(t.expired());
        // the rejected expansion is NOT counted: the report never exceeds
        // the budget
        assert_eq!(t.nodes(), 3);
        assert!(budget.expired());
    }

    #[test]
    fn unlimited_never_expires_quickly() {
        let budget = Budget::new(&SearchLimits::unlimited());
        let mut t = ticker_of(&budget);
        for _ in 0..10_000 {
            assert!(t.tick());
        }
    }

    #[test]
    fn zero_time_budget_expires() {
        let budget = Budget::new(&SearchLimits::with_time(Duration::ZERO));
        let mut t = ticker_of(&budget);
        // expiry is detected on a check boundary
        let mut ok = true;
        for _ in 0..1000 {
            ok = t.tick();
            if !ok {
                break;
            }
        }
        assert!(!ok);
        assert_eq!(t.nodes() & 0xF, 0, "expiry happens on a check boundary");
    }

    #[test]
    fn workers_share_one_node_pool() {
        let budget = Budget::new(&SearchLimits::with_nodes(100));
        let mut a = budget.worker();
        let mut b = budget.worker();
        let mut total = 0u64;
        loop {
            let mut progressed = false;
            if a.tick() {
                total += 1;
                progressed = true;
            }
            if b.tick() {
                total += 1;
                progressed = true;
            }
            if !progressed {
                break;
            }
        }
        assert_eq!(total, 100, "the pool is global, not per worker");
        assert_eq!(a.nodes() + b.nodes(), 100);
    }

    #[test]
    fn dropped_worker_returns_unused_credits() {
        let budget = Budget::new(&SearchLimits::with_nodes(CREDIT_BATCH * 2));
        {
            let mut a = budget.worker();
            assert!(a.tick()); // reserves a batch, spends 1
        } // drop returns BATCH-1 credits
        let mut b = budget.worker();
        let mut n = 0;
        while b.tick() {
            n += 1;
        }
        assert_eq!(n, CREDIT_BATCH * 2 - 1);
    }

    #[test]
    fn one_expired_worker_stops_the_others() {
        let budget = Budget::new(&SearchLimits::with_time(Duration::ZERO));
        let mut a = budget.worker();
        while a.tick() {}
        // a fresh worker sees the sticky flag on its first check boundary
        let mut b = budget.worker();
        assert!(!b.tick());
        assert_eq!(b.nodes(), 0);
    }

    #[test]
    fn cancel_stops_every_worker_and_is_distinguishable_from_expiry() {
        let token = CancelToken::arm();
        let budget = Budget::new(&SearchLimits::unlimited().with_cancel(token.clone()));
        let mut a = budget.worker();
        for _ in 0..100 {
            assert!(a.tick());
        }
        assert!(!budget.cancelled());
        token.cancel();
        // observed on the next check boundary, then sticky for everyone
        let mut stopped = false;
        for _ in 0..16 {
            if !a.tick() {
                stopped = true;
                break;
            }
        }
        assert!(stopped, "cancel observed within one check period");
        let mut b = budget.worker();
        assert!(!b.tick(), "fresh workers see the sticky flag immediately");
        assert!(budget.expired(), "a cancelled run reports as expired");
        assert!(budget.cancelled(), "...and remembers the cause");
    }

    #[test]
    fn inert_token_never_fires_and_deadline_is_not_a_cancel() {
        let inert = CancelToken::default();
        inert.cancel(); // no-op
        assert!(!inert.is_cancelled());
        let budget = Budget::new(&SearchLimits::with_time(Duration::ZERO));
        let mut t = budget.worker();
        while t.tick() {}
        assert!(budget.expired());
        assert!(!budget.cancelled(), "wall-clock expiry is not cancellation");
    }

    #[test]
    fn armed_token_clones_share_one_flag() {
        let token = CancelToken::arm();
        let clone = token.clone();
        clone.cancel();
        assert!(token.is_cancelled(), "clones observe each other's cancel");
    }

    #[test]
    fn stats_merge_sums_counters_and_orders_samples() {
        let mk = |t_ms: u64, ub: usize, f: u64| SearchStats {
            incumbents: vec![IncumbentSample {
                elapsed: Duration::from_millis(t_ms),
                upper_bound: ub,
                lower_bound: 1,
            }],
            prunes: PruneCounters {
                f_prunes: f,
                ..PruneCounters::default()
            },
            open_peak: f,
            seen_peak: 10 - f,
            open_peak_bytes: f * 100,
            seen_peak_bytes: (10 - f) * 100,
            ..SearchStats::default()
        };
        let m = SearchStats::merge([mk(5, 8, 2), mk(1, 9, 3)]);
        assert_eq!(m.prunes.f_prunes, 5);
        assert_eq!(m.open_peak, 3);
        assert_eq!(m.seen_peak, 8);
        assert_eq!(m.open_peak_bytes, 300, "byte peaks merged as max");
        assert_eq!(m.seen_peak_bytes, 800);
        assert_eq!(
            m.incumbents.iter().map(|s| s.upper_bound).collect::<Vec<_>>(),
            vec![9, 8],
            "samples interleaved by elapsed time"
        );
    }

    #[test]
    fn telemetry_disabled_records_nothing() {
        let mut t = Telemetry::new(false);
        t.sample(Duration::ZERO, 5, 1);
        t.prune(|p| p.f_prunes += 1);
        t.peaks(10, 10, 100, 100);
        assert!(!t.on());
        assert!(t.finish().is_none());
    }

    #[test]
    fn width_only_when_exact() {
        let r = SearchResult {
            upper_bound: 5,
            lower_bound: 4,
            exact: false,
            ordering: None,
            nodes_expanded: 0,
            elapsed: Duration::ZERO,
            cover_cache: None,
            stats: None,
            faults: Vec::new(),
        };
        assert_eq!(r.width(), None);
        let r2 = SearchResult { exact: true, lower_bound: 5, ..r };
        assert_eq!(r2.width(), Some(5));
    }
}
