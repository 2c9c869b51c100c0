//! The branch-and-bound engine behind BB-tw (§4.4) and BB-ghw (Ch 8): a
//! depth-first search over elimination orderings with reductions, PR1 and
//! PR2, anytime through the expiry floor, sequential or work-stealing.
//!
//! Treewidth and ghw share this search space (Chapter 3): by Theorem 3 some
//! ordering attains ghw under exact set covering, so the two searches differ
//! only in what a bag costs. The engine is written once over a [`Measure`]
//! carrying exactly those differences, statically dispatched so the
//! per-node path has no indirection.

use crate::common::{
    anytime_lb, complete_ordering, Budget, IncumbentSample, SearchResult, SearchStats,
    StealCounters, Telemetry, Ticker,
};
use crate::steal::Scheduler;
use ghd_core::setcover::CacheStats;
use ghd_core::EliminationOrdering;
use ghd_hypergraph::{BitSet, EliminationGraph, Graph};
use std::sync::atomic::{AtomicUsize, Ordering};

/// What PR1 (§4.4.5) says about completing the current partial ordering.
pub(crate) enum Completion {
    /// No vertex is left: the ordering is complete at this width.
    Leaf(usize),
    /// Eliminating the rest in any order costs at most this much per bag.
    Within(usize),
}

/// A width measure over elimination orderings: everything in which the tw
/// and ghw searches differ, for this engine and the A\* one (`astar.rs`).
/// One value describes the instance and is shared by all workers; each
/// worker owns a [`Measure::Worker`] (scratch, memos).
pub(crate) trait Measure: Sync {
    type Worker: Send;

    /// The graph whose elimination orderings are searched.
    fn graph(&self) -> &Graph;

    /// State for a sequential search or a witness rerun.
    fn worker(&self) -> Self::Worker;

    /// State for the `n` workers of a parallel run; run-level stores set up
    /// here are seen by later [`Measure::worker`] calls too.
    fn workers(&mut self, n: usize) -> Vec<Self::Worker> {
        (0..n).map(|_| self.worker()).collect()
    }

    /// The vertex the reduction rules force next at a node of bound `f`.
    fn reduction(&self, eg: &EliminationGraph, f: usize) -> Option<usize>;

    /// The PR2-allowed children of `v`'s child (`None` when PR2 is off).
    fn pr2_filter(&self, eg: &EliminationGraph, v: usize) -> Option<BitSet>;

    /// The PR1 bound of a state whose partial ordering has width `g`.
    fn completion(&self, w: &mut Self::Worker, eg: &EliminationGraph, g: usize) -> Completion;

    /// Eliminates `v` and returns the cost of the bag it creates; costs at
    /// or above `ub` may be capped there, since they prune all the same.
    fn eliminate(
        &self,
        w: &mut Self::Worker,
        eg: &mut EliminationGraph,
        v: usize,
        ub: usize,
        telemetry: &mut Telemetry,
    ) -> usize;

    /// A lower bound on the width of any completion of the current state.
    fn node_lb(&self, w: &mut Self::Worker, eg: &EliminationGraph) -> usize;

    /// Whether the expiry floor is a true lower bound (bag costs exact).
    fn floor_sound(&self, _w: &Self::Worker) -> bool {
        true
    }

    /// Whether this worker must abandon its remaining work soundly.
    fn abandoned(&self, _w: &Self::Worker) -> bool {
        false
    }

    /// Records the worker's cache stats in `telemetry`; returns its local ones.
    fn finish(&self, _w: &Self::Worker, _telemetry: &mut Telemetry) -> Option<CacheStats> {
        None
    }

    /// The run's cover-cache counters, given every worker's local ones.
    fn cover_total(&self, _locals: &[CacheStats]) -> Option<CacheStats> {
        None
    }

    /// Bytes the workers' state stores reserved (a parallel run's gauge,
    /// and part of A\*'s seen gauge).
    fn state_bytes(&self, _workers: &[Self::Worker]) -> usize {
        0
    }
}

/// The root of a search over `n` vertices: the heuristic lower bound and
/// upper bound (realised by `order`), which may settle it before any
/// expansion.
pub(crate) struct Root {
    pub n: usize,
    pub lb: usize,
    pub ub: usize,
    pub order: Vec<usize>,
}

impl Root {
    pub fn new(n: usize, lb: usize, (ub, order): (usize, EliminationOrdering)) -> Self {
        let order = order.into_vec();
        Root { n, lb, ub, order }
    }

    pub fn settled(&self) -> bool {
        self.lb >= self.ub || self.n <= 1
    }

    /// The run's starting point: the heuristic incumbent, nothing searched.
    fn tally(&self) -> Tally {
        Tally {
            ub: self.ub,
            suffix: Vec::new(),
            nodes: 0,
            completed: true,
            sound: true,
            floor: usize::MAX,
        }
    }

    /// The result when the root bounds meet: the heuristic ordering, exact.
    pub fn settled_result(self, budget: &Budget, telemetry: Telemetry) -> SearchResult {
        SearchResult {
            upper_bound: self.ub,
            lower_bound: self.ub,
            exact: true,
            ordering: Some(self.order),
            nodes_expanded: 0,
            elapsed: budget.elapsed(),
            cover_cache: None,
            stats: telemetry.finish(),
            faults: Vec::new(),
        }
    }
}

/// Resolves a requested thread count to a worker count the id packing
/// supports (`0` = all cores).
fn steal_workers(requested: usize) -> usize {
    match requested {
        0 => ghd_par::num_threads(),
        t => t,
    }
    .clamp(1, crate::sharded::MAX_WORKERS)
}

struct Dfs<'a, M: Measure> {
    m: &'a M,
    state: M::Worker,
    eg: EliminationGraph,
    ticker: Ticker<'a>,
    ub: usize,
    /// Elimination order (first-eliminated first) realising `ub`; completed
    /// to a full ordering lazily.
    best_suffix: Vec<usize>,
    suffix: Vec<usize>,
    root_lb: usize,
    /// Incumbent shared between parallel workers (`None` sequentially).
    /// Improvements are published with `fetch_min`; every expansion syncs
    /// `ub` down to it, so one worker's discovery prunes all the others.
    shared_ub: Option<&'a AtomicUsize>,
    /// Best width *this* search proved with a concrete suffix (`usize::MAX`
    /// until then). Distinguishes "I found it" from "another worker's bound
    /// tightened my `ub`".
    found: usize,
    /// Minimum f-value over the *open frontier* left behind when the budget
    /// expired (`usize::MAX` while none). Every node of the search tree that
    /// was neither closed nor f-pruned has f at least this, so
    /// `min(ub, expiry_floor)` is a sound anytime lower bound whenever f is
    /// ([`Measure::floor_sound`]) — f is then a true lower bound on any
    /// completion through a node and is monotone along root-to-leaf paths.
    expiry_floor: usize,
    /// Telemetry collector (no-op unless stats were requested).
    telemetry: Telemetry,
    /// Work-stealing scheduler (`None` sequentially).
    sched: Option<&'a Scheduler>,
    worker: usize,
    /// Publish children as tasks while `eg.depth()` is at most this.
    steal_depth: usize,
    /// Tasks this worker published onto its deque.
    published: u64,
    /// Witness-reconstruction mode: stop at the first improvement. Run with
    /// `ub = w* + 1`, the first improvement *is* the DFS-first state of
    /// width `w*` — the state whose suffix the sequential search reports
    /// last, since improvements are strict.
    stop_at_first: bool,
    /// Set once `stop_at_first` triggered; unwinds the search as success.
    stopped: bool,
}

impl<'a, M: Measure> Dfs<'a, M> {
    /// A sequential search state; parallel callers set the sharing fields
    /// afterwards.
    fn new(m: &'a M, state: M::Worker, budget: &'a Budget, ub: usize, root_lb: usize) -> Self {
        Dfs {
            m,
            state,
            eg: EliminationGraph::new(m.graph()),
            ticker: budget.worker(),
            ub,
            best_suffix: Vec::new(),
            suffix: Vec::new(),
            root_lb,
            shared_ub: None,
            found: usize::MAX,
            expiry_floor: usize::MAX,
            telemetry: Telemetry::new(budget.collect_stats()),
            sched: None,
            worker: 0,
            steal_depth: 0,
            published: 0,
            stop_at_first: false,
            stopped: false,
        }
    }

    /// Records a width improvement discovered by this search.
    fn improve(&mut self, w: usize) {
        self.ub = w;
        self.found = w;
        self.best_suffix = self.suffix.clone();
        if self.stop_at_first {
            self.stopped = true;
        }
        if let Some(s) = self.shared_ub {
            s.fetch_min(w, Ordering::Relaxed);
        }
        if self.telemetry.on() {
            let (elapsed, lb) = (self.ticker.elapsed(), self.root_lb.min(w));
            self.telemetry.sample(elapsed, w, lb);
        }
    }

    fn sync_ub(&mut self) {
        if let Some(s) = self.shared_ub {
            self.ub = self.ub.min(s.load(Ordering::Relaxed));
        }
    }

    /// Whether the child just eliminated should be offered to the
    /// scheduler instead of searched inline.
    #[inline]
    fn can_publish(&self) -> bool {
        self.sched.is_some() && self.eg.depth() <= self.steal_depth
    }

    /// Publishes the current state (the elimination prefix in `suffix`) as
    /// a stealable task; `false` when the deque is full and the caller
    /// should search inline.
    fn publish_child(&mut self, g: usize, f: usize) -> bool {
        let sched = self.sched.expect("checked by can_publish");
        if sched.publish(self.worker, &self.suffix, g, f) {
            self.published += 1;
            true
        } else {
            false
        }
    }

    /// Depth-first search below the current state. `g` is the width of the
    /// partial ordering, `f` the inherited bound, `allowed` the PR2-filtered
    /// candidate set (`None` = all alive). Returns `false` when the budget
    /// expired (result no longer guaranteed exact).
    fn search(&mut self, g: usize, f: usize, allowed: Option<&BitSet>) -> bool {
        if !self.ticker.tick() || self.m.abandoned(&self.state) {
            // this node stays open: its f joins the expiry floor
            self.expiry_floor = self.expiry_floor.min(f);
            return false;
        }
        self.sync_ub();
        let cost = match self.m.completion(&mut self.state, &self.eg, g) {
            Completion::Leaf(w) => {
                if g < self.ub {
                    self.improve(w);
                }
                return true;
            }
            Completion::Within(cost) => cost,
        };
        let w = g.max(cost);
        if w < self.ub {
            self.improve(w);
            if self.stopped {
                return true;
            }
        }
        if cost <= g {
            self.telemetry.prune(|p| p.pr1_closures += 1);
            return true; // completing in any order already achieves g
        }

        // child candidates: reduction rule first, then PR2 filter
        let forced = self.m.reduction(&self.eg, f);
        if forced.is_some() {
            self.telemetry.prune(|p| p.simplicial += 1);
        }
        let mut children: Vec<usize> = match forced {
            Some(v) => vec![v],
            None => match allowed {
                Some(set) => {
                    if self.telemetry.on() {
                        let cut = self.eg.num_alive().saturating_sub(set.len()) as u64;
                        self.telemetry.prune(|p| p.pr2_filtered += cut);
                    }
                    set.iter().collect()
                }
                None => self.eg.alive().to_vec(),
            },
        };
        // explore low-degree vertices first: finds good orderings earlier
        children.sort_by_key(|&v| self.eg.degree(v));

        let last = children.len();
        for (i, &v) in children.iter().enumerate() {
            // the grandchild PR2 filter must look at the *current* graph
            let grandchildren = match forced {
                None => self.m.pr2_filter(&self.eg, v),
                Some(_) => None,
            };
            let k = self.m.eliminate(
                &mut self.state,
                &mut self.eg,
                v,
                self.ub,
                &mut self.telemetry,
            );
            self.suffix.push(v);
            let child_g = g.max(k);
            let mut child_f = child_g.max(f);
            if child_f < self.ub {
                // h only matters if g alone does not already prune
                child_f = child_f.max(self.m.node_lb(&mut self.state, &self.eg));
            }
            let ok = if child_f < self.ub {
                if self.can_publish() && self.publish_child(child_g, child_f) {
                    true // the scheduler owns the subtree now
                } else {
                    self.search(child_g, child_f, grandchildren.as_ref())
                }
            } else {
                self.telemetry.prune(|p| p.f_prunes += 1);
                true
            };
            self.suffix.pop();
            self.eg.restore();
            if !ok {
                if i + 1 < last {
                    // unvisited siblings remain open; each has f ≥ this f
                    self.expiry_floor = self.expiry_floor.min(f);
                }
                return false;
            }
            if self.stopped {
                return true;
            }
        }
        true
    }

    /// Executes one stolen or popped task: syncs the incumbent, replays the
    /// elimination prefix, recomputes the PR2 filter the inline expansion
    /// would have used at the last prefix vertex, searches the subtree and
    /// restores the state. Returns `false` iff the budget expired inside
    /// (the failed tick has then folded the task's f into the floor).
    fn run_steal_task(&mut self, prefix: &[u32], g: usize, f: usize) -> bool {
        self.sync_ub();
        if f >= self.ub {
            // the subtree cannot beat the incumbent any more
            self.telemetry.prune(|p| p.f_prunes += 1);
            return true;
        }
        debug_assert_eq!(self.eg.depth(), 0, "state restored between tasks");
        let Some((&v, head)) = prefix.split_last() else {
            // the seed task: the root expansion itself
            return self.search(g, f, None);
        };
        for &u in head {
            self.eg.eliminate(u as usize);
            self.suffix.push(u as usize);
        }
        let v = v as usize;
        let grandchildren = match self.m.reduction(&self.eg, f) {
            None => self.m.pr2_filter(&self.eg, v),
            Some(_) => None,
        };
        self.eg.eliminate(v);
        self.suffix.push(v);
        let ok = self.search(g, f, grandchildren.as_ref());
        for _ in 0..prefix.len() {
            self.suffix.pop();
            self.eg.restore();
        }
        ok
    }

    /// Runs this worker's share of a parallel search: executes tasks until
    /// none is left anywhere. Returns whether all of them completed within
    /// the budget, the worker's steal counters and its contained faults.
    fn drain(&mut self) -> (bool, StealCounters, Vec<ghd_par::WorkerFault>) {
        let (sched, w) = (self.sched.expect("a parallel worker"), self.worker);
        let mut steals = StealCounters::default();
        let mut faults = Vec::new();
        let mut all_ok = true;
        while let Some(task) = sched.next(w) {
            steals.executed += 1;
            steals.stolen += u64::from(task.stolen);
            steals.retried += u64::from(task.retry);
            let (id, prefix, g, f) = (task.id, task.prefix, task.g, task.f);
            match ghd_par::run_contained(w, id as usize, || self.run_steal_task(&prefix, g, f)) {
                Ok(ok) => {
                    all_ok &= ok;
                    sched.complete(id);
                }
                Err(fault) => {
                    faults.push(fault);
                    if !sched.fault(id) {
                        // second fault: the subtree is lost — its f-bound
                        // keeps the result sound
                        self.expiry_floor = self.expiry_floor.min(f);
                        all_ok = false;
                    }
                    // a panic can leave the traversal state mid-elimination:
                    // rebuild it (memoized facts stay valid)
                    self.eg = EliminationGraph::new(self.m.graph());
                    self.suffix.clear();
                }
            }
        }
        steals.published = self.published;
        // an abandoning worker folded its remaining work into the expiry
        // floor: the run did not complete
        (all_ok && !self.m.abandoned(&self.state), steals, faults)
    }

    /// A finished witness rerun for a proven `width` (see [`witness`]).
    fn witness(m: &'a M, budget: &'a Budget, width: usize, root_lb: usize) -> Self {
        let mut dfs = Dfs::new(m, m.worker(), budget, width + 1, root_lb);
        dfs.stop_at_first = true;
        dfs.search(0, root_lb, None);
        dfs
    }

    /// What this search proved, for merging into the run's [`Tally`].
    fn tally(&mut self, completed: bool) -> Tally {
        Tally {
            ub: self.found,
            suffix: std::mem::take(&mut self.best_suffix),
            nodes: self.ticker.nodes(),
            completed,
            sound: self.m.floor_sound(&self.state),
            floor: self.expiry_floor,
        }
    }

    /// Moves the telemetry out, with the worker's cache statistics folded
    /// in; returns it with the worker's local cover-cache counters.
    fn take_telemetry(&mut self) -> (Telemetry, Option<CacheStats>) {
        let mut telemetry = std::mem::replace(&mut self.telemetry, Telemetry::new(false));
        let local = self.m.finish(&self.state, &mut telemetry);
        (telemetry, local)
    }
}

/// What the searches of one run proved together.
struct Tally {
    /// Best width with a concrete suffix (`usize::MAX` while none).
    ub: usize,
    /// Elimination order realising `ub`.
    suffix: Vec<usize>,
    nodes: u64,
    /// Every search finished within the budget.
    completed: bool,
    /// Every expiry floor is a sound bound ([`Measure::floor_sound`]).
    sound: bool,
    floor: usize,
}

impl Tally {
    /// Folds in another search; the first strictly better width wins.
    fn absorb(&mut self, o: Tally) {
        if o.ub < self.ub {
            self.ub = o.ub;
            self.suffix = o.suffix;
        }
        self.nodes += o.nodes;
        self.completed &= o.completed;
        self.sound &= o.sound;
        self.floor = self.floor.min(o.floor);
    }

    /// The run's result. It is exact when every search finished with exact
    /// bag costs or the bounds met; the expiry floor only counts toward the
    /// lower bound while it is a sound bound.
    fn result(
        self,
        root: Root,
        budget: &Budget,
        cover_cache: Option<CacheStats>,
        stats: Option<SearchStats>,
        faults: Vec<ghd_par::WorkerFault>,
    ) -> SearchResult {
        let exact = (self.completed && self.sound) || root.lb >= self.ub;
        let lower_bound = if exact {
            self.ub
        } else if self.sound {
            anytime_lb(root.lb, self.floor, self.ub)
        } else {
            root.lb.min(self.ub)
        };
        let elapsed = budget.elapsed();
        let stats = stats.map(|mut s| {
            s.incumbents.push(IncumbentSample {
                elapsed,
                upper_bound: self.ub,
                lower_bound,
            });
            s
        });
        SearchResult {
            upper_bound: self.ub,
            lower_bound,
            exact,
            ordering: Some(complete_ordering(root.n, &self.suffix, root.order)),
            nodes_expanded: self.nodes,
            elapsed,
            cover_cache,
            stats,
            faults,
        }
    }
}

/// Sequential branch and bound from `root`; `measure` is built only when
/// the root bounds do not settle the instance. `elapsed` is measured from
/// the budget's creation.
pub(crate) fn solve<M: Measure>(
    root: Root,
    budget: &Budget,
    measure: impl FnOnce() -> M,
) -> SearchResult {
    let mut telemetry = Telemetry::new(budget.collect_stats());
    telemetry.sample(budget.elapsed(), root.ub, root.lb.min(root.ub));
    if root.settled() {
        return root.settled_result(budget, telemetry);
    }
    let m = measure();
    let mut dfs = Dfs::new(&m, m.worker(), budget, root.ub, root.lb);
    dfs.telemetry = telemetry;
    let completed = dfs.search(0, root.lb, None);
    let mut tally = root.tally();
    tally.absorb(dfs.tally(completed));
    let (telemetry, local) = dfs.take_telemetry();
    let cover_cache = m.cover_total(local.as_slice());
    tally.result(root, budget, cover_cache, telemetry.finish(), Vec::new())
}

/// Reconstructs the ordering [`solve`] reports for a *proven* `width`: the
/// rerun with `ub = width + 1` stops at its first improvement, the
/// DFS-first optimal state — whose suffix the full search reports last.
/// `(ub, order)` is the root's heuristic upper bound over `n` vertices and
/// its ordering; `root_lb` is computed only when the rerun has to search.
/// Returns the ordering (`None` if the budget expired first) and the nodes
/// expanded.
pub(crate) fn witness<M: Measure>(
    n: usize,
    (ub, order): (usize, EliminationOrdering),
    root_lb: impl FnOnce() -> usize,
    width: usize,
    budget: &Budget,
    measure: impl FnOnce() -> M,
) -> (Option<Vec<usize>>, u64) {
    let order = order.into_vec();
    if n <= 1 || width >= ub {
        // the heuristic ordering is what the sequential search emits when
        // it cannot improve on the heuristic
        return (Some(order), 0);
    }
    let m = measure();
    let dfs = Dfs::witness(&m, budget, width, root_lb());
    let ordering = (dfs.found == width).then(|| complete_ordering(n, &dfs.best_suffix, order));
    (ordering, dfs.ticker.nodes())
}

/// One parallel worker's share of the run.
struct WorkerOutcome<W> {
    tally: Tally,
    local: Option<CacheStats>,
    steals: StealCounters,
    stats: Option<SearchStats>,
    faults: Vec<ghd_par::WorkerFault>,
    state: W,
}

/// Work-stealing parallel branch and bound (`0` threads = all cores). Any
/// worker publishes unexplored siblings at depth ≤ `steal_depth` on its own
/// Chase–Lev deque and idle workers steal the oldest — largest — subtree,
/// so all threads stay busy on unbalanced trees. Workers share the
/// incumbent (an atomic `fetch_min`) and one [`Budget`], so a `max_nodes`
/// of N expands at most N states in total.
///
/// The width is schedule-independent because the search is exhaustive; a
/// sequential [`witness`] pass then rebuilds the ordering [`solve`] reports
/// (an expired run keeps the parallel suffix: certified, not canonical).
/// Tasks run under [`ghd_par::run_contained`]; a faulted task is retried
/// once by its publisher and a second fault folds its f into the expiry
/// floor. Stats count every task for the worker that executed it.
pub(crate) fn solve_parallel<M: Measure>(
    root: Root,
    budget: &Budget,
    threads: usize,
    steal_depth: usize,
    measure: impl FnOnce() -> M,
) -> SearchResult {
    let mut root_tel = Telemetry::new(budget.collect_stats());
    root_tel.sample(budget.elapsed(), root.ub, root.lb.min(root.ub));
    if root.settled() {
        return root.settled_result(budget, root_tel);
    }
    let mut m = measure();
    let workers = steal_workers(threads);
    let states = m.workers(workers);
    let m = &m;
    let sched = Scheduler::new(workers);
    let incumbent = AtomicUsize::new(root.ub);
    // Seed task: the whole tree, id 0 by the slab's creation-order contract
    // (FaultPlan::kill_task(0) must hit exactly this first task).
    let seeded = sched.publish(0, &[], 0, root.lb);
    debug_assert!(seeded, "a fresh deque accepts the seed");

    let (ub, root_lb) = (root.ub, root.lb);
    let outcomes: Vec<WorkerOutcome<M::Worker>> = std::thread::scope(|scope| {
        let handles: Vec<_> = states
            .into_iter()
            .enumerate()
            .map(|(w, state)| {
                let (sched, incumbent) = (&sched, &incumbent);
                scope.spawn(move || {
                    let mut dfs = Dfs::new(m, state, budget, ub, root_lb);
                    dfs.shared_ub = Some(incumbent);
                    dfs.sched = Some(sched);
                    dfs.worker = w;
                    dfs.steal_depth = steal_depth.max(1);
                    let (all_ok, steals, faults) = dfs.drain();
                    let (telemetry, local) = dfs.take_telemetry();
                    WorkerOutcome {
                        tally: dfs.tally(all_ok),
                        local,
                        steals,
                        stats: telemetry.finish(),
                        faults,
                        state: dfs.state,
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|j| j.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });

    let mut tally = root.tally();
    let mut faults = Vec::new();
    let mut locals: Vec<CacheStats> = Vec::new();
    let mut steals_all: Vec<StealCounters> = Vec::new();
    let mut worker_stats: Vec<SearchStats> = Vec::new();
    let mut states: Vec<M::Worker> = Vec::new();
    for o in outcomes {
        tally.absorb(o.tally);
        locals.extend(o.local);
        steals_all.push(o.steals);
        worker_stats.extend(o.stats);
        faults.extend(o.faults);
        states.push(o.state);
    }
    faults.sort_by_key(|f| f.task);
    let published: u64 = steals_all.iter().map(|s| s.published).sum();
    debug_assert_eq!(
        sched.published() as u64,
        1 + published,
        "seed + publications"
    );

    // Witness reconstruction (see the determinism notes above). Runs on
    // whatever budget the width phase left; if that expires, the parallel
    // witness (valid, schedule-dependent) is kept.
    if tally.completed && tally.ub < root.ub {
        let mut dfs = Dfs::witness(m, budget, tally.ub, root.lb);
        tally.nodes += dfs.ticker.nodes();
        if dfs.found == tally.ub {
            tally.suffix = std::mem::take(&mut dfs.best_suffix);
        }
        let (telemetry, local) = dfs.take_telemetry();
        locals.extend(local);
        worker_stats.extend(telemetry.finish());
    }

    // taken after the reconstruction, so the counters cover every query
    let cover_cache = m.cover_total(&locals);
    let stats = root_tel.finish().map(|root_stats| {
        let mut merged = SearchStats::merge(std::iter::once(root_stats).chain(worker_stats));
        merged.worker_steals = steals_all;
        merged.faults = faults.clone();
        // BB has no A* closed set; the workers' state stores stand in as
        // the state-memory gauge
        merged.seen_peak_bytes = merged.seen_peak_bytes.max(m.state_bytes(&states) as u64);
        merged
    });
    tally.result(root, budget, cover_cache, stats, faults)
}
