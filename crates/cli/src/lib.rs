//! The `ghd` command-line tool: generate benchmark instances, compute
//! treewidth / generalized hypertree width with any of the workspace's
//! algorithms, and validate decompositions.
//!
//! ```text
//! ghd gen <family> <params…> [--format col|gr|hg]
//! ghd tw <graph-file> [--method astar|bb|ga|sa|minfill] [--time S] [--nodes N]
//!        [--stats json] [--td]
//! ghd ghw <hypergraph-file> [--method astar|bb|ga|saiga|sa|greedy] [--time S]
//!        [--nodes N] [--stats json] [--show]
//! ghd bounds <file>
//! ghd validate <graph-or-hypergraph-file> <td-file>
//! ```
//!
//! Budgets: without `--time`/`--nodes` the exact searches get a default
//! 10 s wall clock; `--time 0` removes the wall clock entirely (run to
//! proven optimality); `--nodes N` caps the **global** number of node
//! expansions — the budget is shared by all workers of the parallel
//! searches, never multiplied by the thread count. When a budget expires
//! the search reports anytime bounds: `lb <= width <= ub (budget expired)`.
//!
//! All commands are implemented as pure functions from arguments + file
//! contents to an output string, so the test suite drives them directly.

use ghd_bounds::{ghw_lower_bound, ghw_upper_bound, tw_lower_bound, tw_upper_bound};
use ghd_core::bucket::{certificate_from_ordering, ghd_from_ordering};
use ghd_core::io::{parse_td, write_ghd, write_td};
use ghd_core::json::{Layout, Writer};
use ghd_core::{
    CoverMethod, EliminationOrdering, GeneralizedHypertreeDecomposition, TreeDecomposition,
};
use ghd_ga::{ga_ghw, ga_tw, sa_ghw, sa_tw, saiga_ghw, GaConfig, SaConfig, SaigaConfig};
use ghd_hypergraph::generators::{graphs, hypergraphs};
use ghd_hypergraph::{io, Graph, Hypergraph};
use ghd_search::{
    astar_ghw, astar_tw, bb_ghw, bb_ghw_parallel, bb_tw, bb_tw_parallel, split_ghw, split_tw,
    BbConfig, BbGhwConfig, BlockSolution, BlockStore, CancelToken, IncumbentSample, PruneCounters,
    SearchLimits, SearchResult, SplitOutcome, SplitReport, StealConfig, WorkerFault,
};
use std::time::Duration;

/// Error category of a failed command, mapped to a BSD-`sysexits` exit
/// code by the `ghd` binary. A budget that expires mid-search is **not**
/// an error: the command prints anytime bounds with a `(budget expired)`
/// note and exits 0.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorKind {
    /// Malformed command line (unknown command/method, bad flag value).
    /// Exit code 64 (`EX_USAGE`).
    Usage,
    /// Malformed *input data*: a file that fails to parse, or a
    /// decomposition that fails validation. Exit code 65 (`EX_DATAERR`).
    Data,
    /// A named input file that cannot be read. Exit code 66 (`EX_NOINPUT`).
    NoInput,
    /// A bug: the command was about to print a width whose independently
    /// re-verified certificate was rejected. Exit code 70 (`EX_SOFTWARE`).
    Internal,
}

/// A failed command: category plus one-line diagnostic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CmdError {
    /// What class of failure this is (drives the exit code).
    pub kind: ErrorKind,
    /// Human-readable one-liner.
    pub message: String,
}

impl CmdError {
    fn usage(message: impl Into<String>) -> CmdError {
        CmdError { kind: ErrorKind::Usage, message: message.into() }
    }
    fn data(message: impl std::fmt::Display) -> CmdError {
        CmdError { kind: ErrorKind::Data, message: message.to_string() }
    }
    fn no_input(message: impl Into<String>) -> CmdError {
        CmdError { kind: ErrorKind::NoInput, message: message.into() }
    }
    fn internal(message: impl Into<String>) -> CmdError {
        CmdError { kind: ErrorKind::Internal, message: message.into() }
    }

    /// The process exit code for this error (BSD `sysexits` conventions).
    pub fn exit_code(&self) -> i32 {
        match self.kind {
            ErrorKind::Usage => 64,
            ErrorKind::Data => 65,
            ErrorKind::NoInput => 66,
            ErrorKind::Internal => 70,
        }
    }
}

impl std::fmt::Display for CmdError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.kind {
            ErrorKind::Internal => write!(f, "InternalError: {}", self.message),
            _ => write!(f, "{}", self.message),
        }
    }
}

impl std::error::Error for CmdError {}

// bare strings (usage texts, `parse_num` messages) default to Usage
impl From<String> for CmdError {
    fn from(message: String) -> CmdError {
        CmdError::usage(message)
    }
}
impl From<&str> for CmdError {
    fn from(message: &str) -> CmdError {
        CmdError::usage(message)
    }
}

/// Result type of every command: human-readable output or a categorised
/// [`CmdError`].
pub type CmdResult = Result<String, CmdError>;

/// Entry point: dispatches on the first argument.
pub fn run(args: &[String]) -> CmdResult {
    match args.first().map(String::as_str) {
        Some("gen") => cmd_gen(&args[1..]),
        Some("tw") => cmd_solve::<Graph>(&args[1..]),
        Some("ghw") => cmd_solve::<Hypergraph>(&args[1..]),
        Some("bounds") => cmd_bounds(&args[1..]),
        Some("validate") => cmd_validate(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("submit") => cmd_submit(&args[1..]),
        Some("--help") | Some("-h") | None => Ok(USAGE.to_string()),
        Some(other) => Err(CmdError::usage(format!("unknown command `{other}`\n{USAGE}"))),
    }
}

const USAGE: &str = "\
ghd — tree and generalized hypertree decompositions

USAGE:
  ghd gen <family> <params…> [--format col|gr|hg]
      families: grid N | grid3d N | queen N | myciel K | complete N |
                gnm N M SEED | adder N | bridge N | clique N |
                grid2d-h N | grid3d-h N | circuit V E SEED
  ghd tw <graph-file> [--method astar|bb|ga|sa|minfill] [--time SECONDS]
         [--nodes N] [--threads T] [--steal-depth D] [--no-split]
         [--stats json] [--td]
  ghd ghw <hypergraph-file> [--method astar|bb|ga|saiga|sa|greedy]
         [--time SECONDS] [--nodes N] [--threads T] [--steal-depth D]
         [--no-split] [--stats json] [--show]
  ghd bounds <file>
  ghd validate <instance-file> <td-file>
  ghd serve <addr> [--workers N] [--queue N] [--cache-mb M] [--log PATH]
         [--max-conns N] [--idle-timeout SECONDS] [--stats-interval SECONDS]
  ghd submit <addr> tw|ghw <file> [solve flags…]
         [--retries N] [--retry-budget SECONDS]
  ghd submit <addr> --manifest FILE [--retries N] [--retry-budget SECONDS]
  ghd submit <addr> ping|stats|shutdown

Budgets (exact searches): default 10s wall clock; --time 0 = unlimited;
--nodes N = global node-expansion budget shared by every worker thread.
--stats json prints the result and its telemetry as one JSON object.
--threads T (--method bb only) runs the work-stealing parallel search
(T = 0 uses all cores, T = 1 the sequential search); widths and
orderings are identical to the sequential search. --steal-depth D
tunes its task-publication cutoff.
--method bb splits instances into independent blocks along safe
separators (components, cut vertices, clique separators for tw;
components and isolated/contained edges for ghw), solves the blocks in
parallel, and recombines — widths and orderings stay identical to the
unsplit search for any thread count. --no-split disables it.

Graph files: DIMACS .col (`p edge`) or PACE .gr (`p tw`).
Hypergraph files: CSP hypergraph library format `name(v1,v2,…).`

Serve: <addr> is `unix:PATH` or a TCP address (`127.0.0.1:7171`; port 0
picks a free port, printed on stderr). --workers 0 (default) uses all
cores; the solve queue is bounded (--queue, default 64) and a full queue
answers `busy`; exact self-certified answers enter a canonical-form cache
(--cache-mb, default 32). With --log PATH the cache also persists to a
checksummed append-only log, replayed (and re-verified) at the next boot;
SIGTERM/SIGINT drains gracefully and fsyncs the log (a second signal
cancels in-flight solves cooperatively). --max-conns (default 256) sheds
excess connections with `busy`; --idle-timeout (default 300, 0 = off)
closes connections with no complete request in the window. `ghd submit`
answers are byte-identical to the one-shot `ghd tw`/`ghd ghw` output for
the same file and flags; --retries N retries `busy`/refused connections
with exponential backoff and seeded jitter within --retry-budget
(default 30) seconds. --stats-interval S logs a one-line stats snapshot
(cache bytes/hits, queue depth, in-flight, replays) every S seconds.
--manifest FILE batches solves over one connection: each line is
`tw|ghw <file> [flags…]` (# comments skipped, relative paths resolve
against the manifest); one status line per instance plus a summary.
";

/// Splits `args` into positionals and `--key [value]` options.
fn split_opts(args: &[String]) -> (Vec<&str>, Vec<(&str, Option<&str>)>) {
    let mut pos = Vec::new();
    let mut opts = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if let Some(key) = args[i].strip_prefix("--") {
            let val = args
                .get(i + 1)
                .filter(|v| !v.starts_with("--"))
                .map(String::as_str);
            if val.is_some() {
                i += 1;
            }
            opts.push((key, val));
        } else {
            pos.push(args[i].as_str());
        }
        i += 1;
    }
    (pos, opts)
}

fn opt<'a>(opts: &[(&'a str, Option<&'a str>)], key: &str) -> Option<&'a str> {
    opts.iter().rev().find(|(k, _)| *k == key).and_then(|(_, v)| *v)
}

fn flag(opts: &[(&str, Option<&str>)], key: &str) -> bool {
    opts.iter().any(|(k, _)| *k == key)
}

fn parse_num<T: std::str::FromStr>(s: &str, what: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("bad {what}: `{s}`"))
}

/// Parses a wall-clock budget. `f64::from_str` happily accepts `inf` and
/// `nan` — the first would panic inside `Duration::from_secs_f64`, the
/// second silently passes every sign check — so budgets are restricted to
/// finite, non-negative numbers here, uniformly for every `--time` flag.
fn parse_secs(s: &str, what: &str) -> Result<f64, String> {
    let secs: f64 = parse_num(s, what)?;
    if !secs.is_finite() || secs < 0.0 {
        return Err(format!("bad {what}: `{s}` (must be a finite number >= 0)"));
    }
    Ok(secs)
}

fn read_file(path: &str) -> Result<String, CmdError> {
    std::fs::read_to_string(path)
        .map_err(|e| CmdError::no_input(format!("cannot read `{path}`: {e}")))
}

/// Loads a graph, auto-detecting DIMACS `.col` vs PACE `.gr` content
/// ([`io::parse_graph`]). Parse failures are [`ErrorKind::Data`] errors.
pub fn load_graph(text: &str) -> Result<Graph, CmdError> {
    io::parse_graph(text).map_err(CmdError::data)
}

fn cmd_gen(args: &[String]) -> CmdResult {
    let (pos, opts) = split_opts(args);
    let format = opt(&opts, "format").unwrap_or("auto");
    let usage = "gen <family> <params…> — see `ghd --help`";
    let family = *pos.first().ok_or(usage)?;
    let p = |i: usize| -> Result<usize, String> {
        pos.get(i)
            .ok_or_else(|| format!("missing parameter {i} for `{family}`"))
            .and_then(|s| parse_num(s, "parameter"))
    };
    enum Inst {
        G(Graph),
        H(Hypergraph),
    }
    let inst = match family {
        "grid" => Inst::G(graphs::grid(p(1)?)),
        "grid3d" => Inst::G(graphs::grid3d(p(1)?)),
        "queen" => Inst::G(graphs::queen(p(1)?)),
        "myciel" => Inst::G(graphs::mycielski(p(1)?)),
        "complete" => Inst::G(graphs::complete(p(1)?)),
        "gnm" => Inst::G(graphs::gnm_random(p(1)?, p(2)?, p(3)? as u64)),
        "adder" => Inst::H(hypergraphs::adder(p(1)?)),
        "bridge" => Inst::H(hypergraphs::bridge(p(1)?)),
        "clique" => Inst::H(hypergraphs::clique(p(1)?)),
        "grid2d-h" => Inst::H(hypergraphs::grid2d(p(1)?)),
        "grid3d-h" => Inst::H(hypergraphs::grid3d(p(1)?)),
        "circuit" => Inst::H(hypergraphs::random_circuit(p(1)?, p(2)?, p(3)? as u64)),
        other => return Err(CmdError::usage(format!("unknown family `{other}`"))),
    };
    match (inst, format) {
        (Inst::G(g), "col" | "auto") => Ok(io::write_dimacs(&g)),
        (Inst::G(g), "gr") => Ok(io::write_pace_gr(&g)),
        (Inst::H(h), "hg" | "auto") => Ok(io::write_hypergraph(&h)),
        (_, f) => Err(CmdError::usage(format!("format `{f}` does not fit this family"))),
    }
}

/// Builds [`SearchLimits`] from `--time` / `--nodes` / `--stats`.
///
/// * no `--time` and no `--nodes`: a default 10 s wall-clock budget,
/// * `--time 0`: unlimited wall clock (run to proven optimality),
/// * `--time S`: wall-clock budget of `S` seconds,
/// * `--nodes N`: a **global** budget of `N` node expansions, shared by all
///   workers of the parallel searches,
/// * `--stats json`: turn on telemetry collection.
fn limits_from(opts: &[(&str, Option<&str>)]) -> Result<SearchLimits, String> {
    let time = opt(opts, "time");
    let nodes = opt(opts, "nodes");
    let mut limits = if time.is_none() && nodes.is_none() {
        SearchLimits::with_time(Duration::from_secs(10))
    } else {
        SearchLimits::unlimited()
    };
    if let Some(s) = time {
        let secs = parse_secs(s, "--time")?;
        limits.time_limit = (secs > 0.0).then(|| Duration::from_secs_f64(secs));
    }
    if let Some(s) = nodes {
        limits.max_nodes = Some(parse_num(s, "--nodes")?);
    }
    if stats_format(opts)?.is_some() {
        limits = limits.stats(true);
    }
    Ok(limits)
}

/// Parses `--threads` / `--steal-depth` for the BB searches. Returns
/// `None` without `--threads` (sequential search); with it, the thread
/// count (`0` = all cores) and the [`StealConfig`]. `--steal-depth` alone
/// is rejected — it only tunes the parallel runtime.
fn steal_opts(
    opts: &[(&str, Option<&str>)],
    method: &str,
) -> Result<Option<(usize, StealConfig)>, String> {
    let threads = opt(opts, "threads");
    let depth = opt(opts, "steal-depth");
    if threads.is_none() && !flag(opts, "threads") {
        if depth.is_some() || flag(opts, "steal-depth") {
            return Err("--steal-depth requires --threads".to_string());
        }
        return Ok(None);
    }
    if method != "bb" {
        return Err(format!("--threads requires --method bb (got `{method}`)"));
    }
    let threads = match threads {
        Some(s) => parse_num(s, "--threads")?,
        None => return Err("--threads requires a value (0 = all cores)".to_string()),
    };
    let mut steal = StealConfig::default();
    if let Some(s) = depth {
        steal.depth = parse_num(s, "--steal-depth")?;
        if steal.depth == 0 {
            return Err(format!("bad --steal-depth: `{s}` (must be >= 1)"));
        }
    } else if flag(opts, "steal-depth") {
        return Err("--steal-depth requires a value".to_string());
    }
    Ok(Some((threads, steal)))
}

/// Parses `--no-split`: like `--threads` it only makes sense for the BB
/// searches, which split instances along safe separators by default.
fn split_off(opts: &[(&str, Option<&str>)], method: &str) -> Result<bool, String> {
    if !flag(opts, "no-split") {
        return Ok(false);
    }
    if method != "bb" {
        return Err(format!("--no-split requires --method bb (got `{method}`)"));
    }
    Ok(true)
}

/// Parses `--stats json` (the only supported format for now).
fn stats_format<'a>(opts: &[(&'a str, Option<&'a str>)]) -> Result<Option<&'a str>, String> {
    if !flag(opts, "stats") {
        return Ok(None);
    }
    match opt(opts, "stats") {
        Some("json") => Ok(Some("json")),
        Some(other) => Err(format!("unsupported --stats format `{other}` (expected `json`)")),
        None => Err("--stats requires a format (expected `json`)".to_string()),
    }
}

/// Certifies `ordering` with `check` when the search produced one and
/// returns the verified decomposition, for the emitters to render; an
/// exact claim without a realising ordering is rejected outright. This is
/// the single gate between a search answer and the bytes that leave the
/// process.
fn certify<D>(
    ordering: Option<&[usize]>,
    exact: bool,
    check: impl FnOnce(&[usize]) -> Result<D, CmdError>,
) -> Result<Option<D>, CmdError> {
    match ordering {
        Some(o) => check(o).map(Some),
        None if exact => Err(CmdError::internal(
            "certificate rejected: exact width without a realising ordering",
        )),
        None => Ok(None),
    }
}

fn permutation(ordering: &[usize]) -> Result<EliminationOrdering, CmdError> {
    EliminationOrdering::new(ordering.to_vec())
        .ok_or_else(|| CmdError::internal("certificate rejected: ordering is not a permutation"))
}

fn rejected(e: impl std::fmt::Display) -> CmdError {
    CmdError::internal(format!("certificate rejected: {e}"))
}

/// Checks a verified decomposition of width `w` supports the claim:
/// equality for `exact` claims, `<=` for heuristic upper bounds.
fn supports(w: usize, claimed: usize, exact: bool) -> Result<(), CmdError> {
    if if exact { w != claimed } else { w > claimed } {
        return Err(rejected(format!("decomposition has width {w}, claimed {claimed}")));
    }
    Ok(())
}

/// Identity of the solved instance as it appears in `--stats json`.
struct JsonHeader<'a> {
    problem: &'a str,
    method: &'a str,
    vertices: usize,
    edges: usize,
}

/// Renders a [`ghd_search::SearchResult`] (with its telemetry) as a single
/// JSON object — the machine-readable face of `--stats json`.
fn search_json(
    hdr: &JsonHeader<'_>,
    r: &SearchResult,
    certified: bool,
    cancelled: bool,
    split: Option<&SplitReport>,
) -> String {
    let mut s = String::new();
    Writer::new(&mut s).object(Layout::Lines, |o| {
        o.field("problem").str(hdr.problem);
        o.field("method").str(hdr.method);
        o.field("vertices").int(hdr.vertices);
        o.field("edges").int(hdr.edges);
        o.field("lower_bound").int(r.lower_bound);
        o.field("upper_bound").int(r.upper_bound);
        o.field("exact").bool(r.exact);
        o.field("certified").bool(certified);
        o.field("cancelled").bool(cancelled);
        faults_json(o.field("faults"), &r.faults);
        o.field("nodes_expanded").int(r.nodes_expanded);
        o.field("elapsed_s").f64(r.elapsed.as_secs_f64(), 6);
        match split {
            Some(rep) => {
                o.field("preprocess").object(Layout::Inline, |o| {
                    o.field("eliminated").int(rep.eliminated);
                    o.field("base_width").int(rep.base_width);
                    o.field("rounds").int(rep.rounds);
                });
                o.field("split").object(Layout::Inline, |o| {
                    o.field("enabled").bool(rep.split);
                    o.field("stitched").bool(rep.stitched);
                    o.field("witness_nodes").int(rep.witness_nodes);
                    o.field("contained_edges").int(rep.contained_edges);
                    o.field("blocks").records(Layout::Inline, &rep.blocks, |o, b| {
                        o.field("size").int(b.size);
                        o.field("width").int(b.width);
                        o.field("lower_bound").int(b.lower_bound);
                        o.field("exact").bool(b.exact);
                        o.field("kind").str(b.kind.as_str());
                        o.field("cache_hit").bool(b.cache_hit);
                        o.field("nodes").int(b.nodes);
                    });
                });
            }
            None => {
                o.field("preprocess").null();
                o.field("split").null();
            }
        }
        match &r.stats {
            Some(st) => o.field("stats").object(Layout::Lines, |o| {
                incumbents_json(o.field("incumbents"), &st.incumbents);
                prunes_json(o.field("prunes"), &st.prunes);
                o.field("open_peak").int(st.open_peak);
                o.field("seen_peak").int(st.seen_peak);
                o.field("open_peak_bytes").int(st.open_peak_bytes);
                o.field("seen_peak_bytes").int(st.seen_peak_bytes);
                o.field("queue_degraded").bool(st.queue_degraded);
                o.field("worker_caches").records(Layout::Inline, &st.worker_caches, |o, c| {
                    o.field("hits").int(c.hits);
                    o.field("misses").int(c.misses);
                    o.field("evictions").int(c.evictions);
                    o.field("entries").int(c.entries);
                });
                o.field("worker_steals").records(Layout::Inline, &st.worker_steals, |o, c| {
                    o.field("published").int(c.published);
                    o.field("executed").int(c.executed);
                    o.field("stolen").int(c.stolen);
                    o.field("retried").int(c.retried);
                });
            }),
            None => o.field("stats").null(),
        }
    });
    s.push('\n');
    s
}

/// The `faults` list of `--stats json` and `BENCH_search.json`.
pub fn faults_json(w: Writer<'_>, faults: &[WorkerFault]) {
    w.records(Layout::Inline, faults, |o, f| {
        o.field("worker").int(f.worker);
        o.field("task").int(f.task);
        o.field("payload").str(&f.payload);
    });
}

/// The `incumbents` timeline of `--stats json` and `BENCH_search.json`.
pub fn incumbents_json(w: Writer<'_>, samples: &[IncumbentSample]) {
    w.records(Layout::Inline, samples, |o, s| {
        o.field("elapsed_s").f64(s.elapsed.as_secs_f64(), 6);
        o.field("upper_bound").int(s.upper_bound);
        o.field("lower_bound").int(s.lower_bound);
    });
}

/// The `prunes` counters of `--stats json` and `BENCH_search.json`.
pub fn prunes_json(w: Writer<'_>, p: &PruneCounters) {
    w.object(Layout::Inline, |o| {
        o.field("simplicial").int(p.simplicial);
        o.field("pr2_filtered").int(p.pr2_filtered);
        o.field("pr1_closures").int(p.pr1_closures);
        o.field("f_prunes").int(p.f_prunes);
        o.field("dominance_hits").int(p.dominance_hits);
        o.field("capped_covers").int(p.capped_covers);
    });
}

/// A fully rendered solve answer plus the metadata `ghd-serve` needs for
/// cache admission and telemetry. `body` is byte-identical to what the
/// one-shot CLI prints for the same instance text and flags — both paths
/// run through the one solve path behind [`solve_tw_text_with_store`] and
/// [`solve_ghw_text_with_store`], so the identity holds by construction,
/// not by convention.
pub type SolveReport = ghd_serve::SolveOutcome;

fn cmd_solve<P: Problem>(args: &[String]) -> CmdResult {
    let (pos, _) = split_opts(args);
    let usage = || format!("{} <{}-file> — see `ghd --help`", P::NAME, P::NOUNS[0]);
    let text = read_file(pos.first().ok_or_else(usage)?)?;
    Ok(solve_text::<P>(&text, args, CancelToken::default(), None)?.body)
}

/// Solves a treewidth request from instance *text* + flags (positionals in
/// `args` are ignored). This is the whole of `ghd tw` after file loading;
/// `ghd-serve` calls it directly so daemon answers match the one-shot CLI
/// byte for byte. `cancel` is threaded into the search budget: the daemon
/// arms one token per in-flight request so a `cancel` verb (or shutdown
/// signal) stops the search at its next periodic budget draw; the one-shot
/// CLI passes the inert default, which costs nothing on the hot path and
/// never fires. `store` is an optional cross-instance [`BlockStore`]: the
/// daemon passes its per-block decomposition cache so exact block solutions
/// are shared across requests. A store hit replays a previously verified
/// block solution; it never alters the response body — the witness
/// reconstruction runs on the whole instance either way.
pub fn solve_tw_text_with_store(
    text: &str,
    args: &[String],
    cancel: CancelToken,
    store: Option<&dyn BlockStore>,
) -> Result<SolveReport, CmdError> {
    solve_text::<Graph>(text, args, cancel, store)
}

/// Solves a ghw request from instance *text* + flags; see
/// [`solve_tw_text_with_store`].
pub fn solve_ghw_text_with_store(
    text: &str,
    args: &[String],
    cancel: CancelToken,
    store: Option<&dyn BlockStore>,
) -> Result<SolveReport, CmdError> {
    solve_text::<Hypergraph>(text, args, cancel, store)
}

type Opts<'a> = [(&'a str, Option<&'a str>)];
type Store<'a> = Option<&'a dyn BlockStore>;
type Certified<P> = Result<<P as Problem>::Decomp, CmdError>;

/// A heuristic's answer: its summary label, width and ordering.
type Heuristic = (&'static str, usize, Vec<usize>);

/// What `ghd tw` and `ghd ghw` do differently; [`solve_text`] owns the rest.
trait Problem: Sized {
    /// The command, which names the width.
    const NAME: &'static str;
    /// What the report header calls the instance and its edges.
    const NOUNS: [&'static str; 2];
    /// The flag that prints the certified decomposition.
    const EMIT: &'static str;
    type Config;
    type Decomp;

    fn parse(text: &str) -> Result<Self, CmdError>;
    /// Vertex and edge counts.
    fn size(&self) -> (usize, usize);
    fn astar(&self, limits: SearchLimits) -> SearchResult;
    fn config(limits: SearchLimits, steal: StealConfig) -> Self::Config;
    fn bb(&self, cfg: &Self::Config) -> SearchResult;
    fn bb_parallel(&self, cfg: &Self::Config, threads: usize) -> SearchResult;
    fn split(&self, cfg: &Self::Config, threads: usize, store: Store) -> SplitOutcome;
    /// Runs the heuristic `method` names (`None` for no such method).
    fn heuristic(&self, method: &str, opts: &Opts) -> Result<Option<Heuristic>, CmdError>;
    /// Self-certification: independently rebuilds the decomposition the
    /// ordering induces, verifies it against the instance, and checks it
    /// supports the claimed width. A failure here is a bug in the search —
    /// it surfaces as a loud [`ErrorKind::Internal`] instead of a silently
    /// wrong number. `every_bag` is ghw's (see its impl).
    fn certify(&self, o: &[usize], claimed: usize, exact: bool, every_bag: bool)
        -> Certified<Self>;
    fn render(&self, decomp: &Self::Decomp) -> String;
}

impl Problem for Graph {
    const NAME: &'static str = "tw";
    const NOUNS: [&'static str; 2] = ["graph", "edges"];
    const EMIT: &'static str = "td";
    type Config = BbConfig;
    type Decomp = TreeDecomposition;

    fn parse(text: &str) -> Result<Graph, CmdError> {
        load_graph(text)
    }
    fn size(&self) -> (usize, usize) {
        (self.num_vertices(), self.num_edges())
    }
    fn astar(&self, limits: SearchLimits) -> SearchResult {
        astar_tw(self, limits)
    }
    fn config(limits: SearchLimits, steal: StealConfig) -> BbConfig {
        BbConfig { limits, steal, ..BbConfig::default() }
    }
    fn bb(&self, cfg: &BbConfig) -> SearchResult {
        bb_tw(self, cfg)
    }
    fn bb_parallel(&self, cfg: &BbConfig, threads: usize) -> SearchResult {
        bb_tw_parallel(self, cfg, threads)
    }
    fn split(&self, cfg: &BbConfig, threads: usize, store: Store) -> SplitOutcome {
        split_tw(self, cfg, threads, store)
    }
    fn heuristic(&self, method: &str, opts: &Opts) -> Result<Option<Heuristic>, CmdError> {
        Ok(Some(match method {
            "ga" => {
                let r = ga_tw(self, &ga_cfg(opts)?);
                ("GA-tw", r.best_width, r.best_ordering)
            }
            "sa" => {
                let r = sa_tw(self, &SaConfig { seed: seed_of(opts)?, ..SaConfig::default() });
                ("SA-tw", r.best_width, r.best_ordering)
            }
            "minfill" => {
                let (w, o) = tw_upper_bound::<ghd_prng::rngs::StdRng>(self, None);
                ("min-fill", w, o.into_vec())
            }
            _ => return Ok(None),
        }))
    }
    /// Cost: one `O(n·w)` elimination plus an `O(|T|·w)` verify.
    fn certify(&self, o: &[usize], claimed: usize, exact: bool, _: bool) -> Certified<Self> {
        let td = ghd_core::bucket::vertex_elimination(self, &permutation(o)?);
        td.verify_graph(self).map_err(rejected)?;
        supports(td.width(), claimed, exact)?;
        Ok(td)
    }
    fn render(&self, td: &TreeDecomposition) -> String {
        write_td(td)
    }
}

impl Problem for Hypergraph {
    const NAME: &'static str = "ghw";
    const NOUNS: [&'static str; 2] = ["hypergraph", "hyperedges"];
    const EMIT: &'static str = "show";
    type Config = BbGhwConfig;
    type Decomp = GeneralizedHypertreeDecomposition;

    fn parse(text: &str) -> Result<Hypergraph, CmdError> {
        io::parse_hypergraph(text).map_err(CmdError::data)
    }
    fn size(&self) -> (usize, usize) {
        (self.num_vertices(), self.num_edges())
    }
    fn astar(&self, limits: SearchLimits) -> SearchResult {
        astar_ghw(self, limits)
    }
    fn config(limits: SearchLimits, steal: StealConfig) -> BbGhwConfig {
        BbGhwConfig { limits, steal, ..BbGhwConfig::default() }
    }
    fn bb(&self, cfg: &BbGhwConfig) -> SearchResult {
        bb_ghw(self, cfg)
    }
    fn bb_parallel(&self, cfg: &BbGhwConfig, threads: usize) -> SearchResult {
        bb_ghw_parallel(self, cfg, threads)
    }
    fn split(&self, cfg: &BbGhwConfig, threads: usize, store: Store) -> SplitOutcome {
        split_ghw(self, cfg, threads, store)
    }
    fn heuristic(&self, method: &str, opts: &Opts) -> Result<Option<Heuristic>, CmdError> {
        let seed = || seed_of(opts);
        Ok(Some(match method {
            "ga" => {
                let r = ga_ghw(self, &ga_cfg(opts)?);
                ("GA-ghw", r.best_width, r.best_ordering)
            }
            "saiga" => {
                let r = saiga_ghw(self, &SaigaConfig { seed: seed()?, ..SaigaConfig::default() });
                ("SAIGA-ghw", r.result.best_width, r.result.best_ordering)
            }
            "sa" => {
                let r = sa_ghw(self, &SaConfig { seed: seed()?, ..SaConfig::default() });
                ("SA-ghw", r.best_width, r.best_ordering)
            }
            "greedy" => {
                let (w, o) = ghw_upper_bound::<ghd_prng::rngs::StdRng>(self, None);
                ("min-fill + greedy cover", w, o.into_vec())
            }
            _ => return Ok(None),
        }))
    }
    /// Verifies Definition 13. Only the bags that can set the width get
    /// their own exact cover ([`certificate_from_ordering`]); with
    /// `every_bag` (for `--show`, which prints each bag's own λ) every bag
    /// does. The width is the same either way.
    fn certify(
        &self,
        o: &[usize],
        claimed: usize,
        exact: bool,
        every_bag: bool,
    ) -> Certified<Self> {
        let sigma = permutation(o)?;
        let ghd = if every_bag {
            ghd_from_ordering(self, &sigma, CoverMethod::Exact)
        } else {
            certificate_from_ordering(self, &sigma)
        };
        ghd.verify(self).map_err(rejected)?;
        supports(ghd.width(), claimed, exact)?;
        Ok(ghd)
    }
    fn render(&self, ghd: &GeneralizedHypertreeDecomposition) -> String {
        write_ghd(ghd, self)
    }
}

/// The whole of `ghd tw` / `ghd ghw` after file loading: parse, run the
/// method, certify, render (see [`solve_tw_text_with_store`]).
fn solve_text<P: Problem>(
    text: &str,
    args: &[String],
    cancel: CancelToken,
    store: Store,
) -> Result<SolveReport, CmdError> {
    let (_, opts) = split_opts(args);
    let inst = P::parse(text)?;
    let method = opt(&opts, "method").unwrap_or("astar");
    let limits = limits_from(&opts)?.with_cancel(cancel.clone());
    let parallel = steal_opts(&opts, method)?;
    let no_split = split_off(&opts, method)?;
    let stats = stats_format(&opts)?.is_some();
    let searched = |name: &str, r: SearchResult, split: Option<SplitReport>| {
        let cancelled = !r.exact && cancel.is_cancelled();
        let name = format!("{name}-{}", P::NAME);
        (describe(&name, r.upper_bound, r.lower_bound, r.exact, cancelled), r, split, cancelled)
    };
    let (summary, r, split, cancelled) = match method {
        "astar" => searched("A*", inst.astar(limits), None),
        "bb" => {
            let (threads, steal) = parallel.unwrap_or((1, StealConfig::default()));
            let cfg = P::config(limits, steal);
            match (no_split, threads) {
                (false, _) => {
                    let o = inst.split(&cfg, threads, store);
                    searched("BB", o.result, Some(o.report))
                }
                // one worker runs the sequential search it would reproduce
                (true, 1) => searched("BB", inst.bb(&cfg), None),
                (true, t) => searched("BB", inst.bb_parallel(&cfg, t), None),
            }
        }
        other if stats => {
            return Err(CmdError::usage(format!(
                "--stats json requires --method astar|bb (got `{other}`)"
            )))
        }
        other => {
            let unknown = || CmdError::usage(format!("unknown method `{other}`"));
            let (label, width, ordering) = inst.heuristic(other, &opts)?.ok_or_else(unknown)?;
            let r = SearchResult {
                upper_bound: width,
                lower_bound: 0,
                exact: false,
                ordering: Some(ordering),
                nodes_expanded: 0,
                elapsed: Duration::ZERO,
                cover_cache: None,
                stats: None,
                faults: Vec::new(),
            };
            (format!("{label}: width <= {width}"), r, None, false)
        }
    };
    // verify-on-emit: no width is printed unless its certificate passes
    let emit = !stats && flag(&opts, P::EMIT);
    let decomp =
        certify(r.ordering.as_deref(), r.exact, |o| inst.certify(o, r.upper_bound, r.exact, emit))?;
    let certified = decomp.is_some();
    let (vertices, edges) = inst.size();
    let body = if stats {
        let hdr = JsonHeader { problem: P::NAME, method, vertices, edges };
        search_json(&hdr, &r, certified, cancelled, split.as_ref())
    } else {
        let [instance, edge_noun] = P::NOUNS;
        let mut out = format!("{instance}: {vertices} vertices, {edges} {edge_noun}\n{summary}\n");
        if emit {
            let decomp = decomp.ok_or("no ordering available to emit a decomposition")?;
            out.push_str(&inst.render(&decomp));
        }
        out
    };
    Ok(SolveReport {
        body,
        width: r.upper_bound,
        exact: r.exact,
        certified,
        cacheable: !stats && r.exact && certified, // stats bodies embed wall-clock telemetry
        nodes_expanded: r.nodes_expanded,
        faults: r.faults.len(),
        cancelled,
    })
}

/// Cross-instance cache of exact block solutions, shared by every worker
/// of a `ghd-serve` daemon: two different instances that share a block
/// (same canonical block text) reuse each other's verified solutions.
/// Backed by the same byte-capped LRU as the response cache. Hits never
/// alter response bodies — they only skip re-solving a block; the witness
/// reconstruction still runs on the whole instance.
pub struct BlockCache {
    inner: std::sync::Mutex<ghd_core::canon::DecompCache>,
}

impl BlockCache {
    /// An empty cache holding at most `cap_bytes` of block solutions.
    pub fn new(cap_bytes: usize) -> BlockCache {
        BlockCache {
            inner: std::sync::Mutex::new(ghd_core::canon::DecompCache::new(cap_bytes)),
        }
    }

    fn key(canon: &str) -> ghd_core::canon::CacheKey {
        ghd_core::canon::CacheKey {
            hash: ghd_core::canon::text_hash(canon),
            canon: canon.to_string(),
            signature: "block".to_string(),
        }
    }
}

impl BlockStore for BlockCache {
    fn probe(&self, canon: &str) -> Option<BlockSolution> {
        let hit = self.inner.lock().ok()?.probe(&Self::key(canon))?;
        // body: "width lower_bound v0 v1 …" — fail closed on any slip
        let mut nums = hit.body.split_whitespace().map(str::parse::<usize>);
        let width = nums.next()?.ok()?;
        let lower_bound = nums.next()?.ok()?;
        let ordering: Vec<usize> = nums.collect::<Result<_, _>>().ok()?;
        Some(BlockSolution { width, lower_bound, ordering })
    }

    fn admit(&self, canon: &str, sol: &BlockSolution) {
        use std::fmt::Write as _;
        let mut body = format!("{} {}", sol.width, sol.lower_bound);
        for v in &sol.ordering {
            let _ = write!(body, " {v}");
        }
        let value = ghd_core::canon::CachedDecomp { body, width: sol.width };
        if let Ok(mut cache) = self.inner.lock() {
            cache.admit(Self::key(canon), value);
        }
    }
}

/// The [`ghd_serve::Solver`] backed by this crate's own solve path (the
/// one behind [`solve_tw_text_with_store`] and
/// [`solve_ghw_text_with_store`]), so daemon answers match the one-shot CLI
/// byte for byte. Owns the per-block
/// solution cache the split layer probes across requests.
#[derive(Default)]
pub struct CliSolver {
    blocks: BlockCache,
}

impl Default for BlockCache {
    fn default() -> BlockCache {
        BlockCache::new(8 << 20)
    }
}

/// The instance as the workspace writers would print it, so comments,
/// whitespace and format never split cache entries. It is written from
/// the token stream; no `Graph` or `Hypergraph` is built. `None` for an
/// unknown command or an unparseable instance (those go uncached, and the
/// solve path reports the error).
fn canonical_text(cmd: &str, instance: &str) -> Option<String> {
    match cmd {
        "tw" => io::canonical_graph_text(instance).ok(),
        "ghw" => io::canonical_hypergraph_text(instance).ok(),
        _ => None,
    }
}

/// The normalized flag set as a cache-signature component: last
/// occurrence wins per key (mirroring [`opt`]'s resolution), then sorted,
/// so flag order never splits cache entries. Spelling a default out
/// (`--method astar` vs nothing) still yields distinct signatures — a
/// harmless duplicate entry, never a wrong answer.
fn signature_of(cmd: &str, opts: &[(&str, Option<&str>)]) -> String {
    let mut kv: Vec<(&str, &str)> = Vec::new();
    for (k, v) in opts {
        kv.retain(|(seen, _)| seen != k);
        kv.push((k, v.unwrap_or("")));
    }
    kv.sort_unstable();
    let mut s = cmd.to_string();
    for (k, v) in kv {
        s.push_str(" --");
        s.push_str(k);
        s.push('=');
        s.push_str(v);
    }
    s
}

impl ghd_serve::Solver for CliSolver {
    fn cache_key(
        &self,
        cmd: &str,
        instance: &str,
        args: &[String],
    ) -> Option<ghd_serve::CacheKey> {
        let (_, opts) = split_opts(args);
        // --stats bodies embed wall-clock telemetry: never cached
        // (malformed --stats values go uncached too — the solve path
        // reports the usage error)
        if !matches!(stats_format(&opts), Ok(None)) {
            return None;
        }
        let canon = canonical_text(cmd, instance)?;
        let hash = ghd_core::canon::text_hash(&canon);
        Some(ghd_serve::CacheKey { hash, canon, signature: signature_of(cmd, &opts) })
    }

    fn solve(
        &self,
        cmd: &str,
        instance: &str,
        args: &[String],
        cancel: &ghd_serve::CancelFlag,
    ) -> Result<ghd_serve::SolveOutcome, ghd_serve::SolveError> {
        let token = CancelToken::from_flag(std::sync::Arc::clone(cancel));
        match cmd {
            "tw" => solve_tw_text_with_store(instance, args, token, Some(&self.blocks)),
            "ghw" => solve_ghw_text_with_store(instance, args, token, Some(&self.blocks)),
            other => Err(CmdError::usage(format!("unknown solve command `{other}`"))),
        }
        .map_err(|e| ghd_serve::SolveError {
            code: i64::from(e.exit_code()),
            message: e.to_string(),
        })
    }

    /// Replay admission check for records read back from the on-disk
    /// cache log. A record is trusted only if its canonical text still
    /// parses, still canonicalises to the *same* text, and still hashes
    /// to the stored key — i.e. the canonicalization this build would
    /// produce matches the one the record was written under.
    /// Any drift (format change, hash change, corrupted-but-valid-CRC
    /// payload) fails closed and the record is skipped.
    fn verify_replay(&self, key: &ghd_serve::CacheKey) -> bool {
        let cmd = key.signature.split_whitespace().next().unwrap_or("");
        canonical_text(cmd, &key.canon).is_some_and(|canon| canon == key.canon)
            && ghd_core::canon::text_hash(&key.canon) == key.hash
    }
}

fn cmd_serve(args: &[String]) -> CmdResult {
    let (pos, opts) = split_opts(args);
    let addr = *pos
        .first()
        .ok_or("serve <addr> — e.g. `ghd serve 127.0.0.1:7171` or `ghd serve unix:/tmp/ghd.sock`")?;
    let mut cfg = ghd_serve::ServerConfig::default();
    if let Some(s) = opt(&opts, "workers") {
        cfg.workers = parse_num(s, "--workers")?; // 0 = all cores
    }
    if let Some(s) = opt(&opts, "queue") {
        cfg.queue = parse_num(s, "--queue")?;
        if cfg.queue == 0 {
            return Err(CmdError::usage(format!("bad --queue: `{s}` (must be >= 1)")));
        }
    }
    if let Some(s) = opt(&opts, "cache-mb") {
        cfg.cache_bytes = parse_num::<usize>(s, "--cache-mb")? << 20;
    }
    if let Some(s) = opt(&opts, "log") {
        cfg.log_path = Some(std::path::PathBuf::from(s));
    }
    if let Some(s) = opt(&opts, "max-conns") {
        cfg.max_conns = parse_num(s, "--max-conns")?;
        if cfg.max_conns == 0 {
            return Err(CmdError::usage(format!("bad --max-conns: `{s}` (must be >= 1)")));
        }
    }
    if let Some(s) = opt(&opts, "idle-timeout") {
        let secs = parse_secs(s, "--idle-timeout")?;
        // 0 disables the idle reaper (connections may sit forever)
        cfg.idle_timeout = (secs > 0.0).then(|| Duration::from_secs_f64(secs));
    }
    if let Some(s) = opt(&opts, "stats-interval") {
        let secs = parse_secs(s, "--stats-interval")?;
        // 0 disables the periodic snapshot line
        cfg.stats_interval = (secs > 0.0).then(|| Duration::from_secs_f64(secs));
    }
    let server = ghd_serve::Server::bind(addr, cfg, std::sync::Arc::new(CliSolver::default()))
        .map_err(|e| CmdError::usage(format!("cannot bind `{addr}`: {e}")))?;
    // SIGTERM/SIGINT drain gracefully: in-flight solves finish (a second
    // signal cancels them cooperatively) and the cache log is fsynced
    ghd_serve::signal::install();
    // readiness line on stderr: stdout stays the command's output channel
    eprintln!("ghd-serve listening on {}", server.local_addr());
    Ok(server.run())
}

/// Strips the client-side `--retries N` / `--retry-budget SECS` flags
/// from a submit argument list — they configure the retry loop *here*
/// and must never reach the daemon (where they would split the cache
/// signature). Returns `(retries, budget, forwarded_args)`.
fn retry_opts(args: &[String]) -> Result<(u32, Duration, Vec<String>), CmdError> {
    let mut retries = 0u32;
    let mut budget = Duration::from_secs(30);
    let mut rest = Vec::with_capacity(args.len());
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--retries" => {
                let v = args.get(i + 1).ok_or("--retries needs a value")?;
                retries = parse_num(v, "--retries")?;
                i += 2;
            }
            "--retry-budget" => {
                let v = args.get(i + 1).ok_or("--retry-budget needs a value")?;
                budget = Duration::from_secs_f64(parse_secs(v, "--retry-budget")?);
                i += 2;
            }
            _ => {
                rest.push(args[i].clone());
                i += 1;
            }
        }
    }
    Ok((retries, budget, rest))
}

/// One submit attempt. `Err((retryable, error))`: retryable covers
/// exactly the *transient* overload conditions — a refused connection
/// (daemon not yet listening / backlog full) and a `busy` 503 (full
/// queue or shed connection). `draining` is 503 but **not** retryable:
/// the daemon is going away, so retrying only delays the inevitable.
fn submit_once(addr: &str, req: &ghd_serve::Request) -> Result<String, (bool, CmdError)> {
    let mut client = match ghd_serve::Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            let transient = e.kind() == std::io::ErrorKind::ConnectionRefused;
            return Err((transient, CmdError::no_input(format!("cannot connect to `{addr}`: {e}"))));
        }
    };
    let resp = client
        .request(req)
        .map_err(|e| (false, CmdError::data(format!("transport error: {e}"))))?;
    if resp.ok {
        let mut body = resp.body.unwrap_or_default();
        // control answers are bare tokens; give them their newline
        if !body.is_empty() && !body.ends_with('\n') {
            body.push('\n');
        }
        Ok(body)
    } else {
        let message = resp.error.unwrap_or_else(|| "unspecified server error".into());
        let transient = resp.code == Some(503) && message.starts_with("busy");
        let err = match resp.code {
            // the daemon's code is the CLI's own sysexits category
            Some(64) => CmdError::usage(message),
            Some(65) => CmdError::data(message),
            Some(66) => CmdError::no_input(message),
            // busy/draining (503) and contained panics (70) are server
            // conditions: surface as internal
            _ => CmdError::internal(message),
        };
        Err((transient, err))
    }
}

/// One manifest entry: `tw|ghw <file> [flags…]`, whitespace-separated.
struct ManifestEntry {
    line_no: usize,
    verb: String,
    file: String,
    flags: Vec<String>,
}

/// Parses a batch manifest: one solve per line, `#` comments and blank
/// lines skipped. Relative instance paths resolve against the manifest's
/// own directory, so a manifest can sit next to its instances.
fn parse_manifest(text: &str, manifest_path: &str) -> Result<Vec<ManifestEntry>, CmdError> {
    let base = std::path::Path::new(manifest_path).parent();
    let mut entries = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut toks = line.split_whitespace();
        let verb = toks.next().unwrap_or_default().to_string();
        if verb != "tw" && verb != "ghw" {
            return Err(CmdError::usage(format!(
                "manifest line {}: expected `tw|ghw <file> [flags…]`, got `{line}`",
                i + 1
            )));
        }
        let file = toks.next().ok_or_else(|| {
            CmdError::usage(format!("manifest line {}: missing instance file", i + 1))
        })?;
        let path = std::path::Path::new(file);
        let file = if path.is_relative() {
            base.map_or_else(|| path.to_path_buf(), |b| b.join(path))
        } else {
            path.to_path_buf()
        };
        entries.push(ManifestEntry {
            line_no: i + 1,
            verb,
            file: file.to_string_lossy().into_owned(),
            flags: toks.map(str::to_string).collect(),
        });
    }
    Ok(entries)
}

/// Batch submit: every manifest entry goes over **one** connection, in
/// order, printing one status line per instance and a trailing summary.
/// Individual failures (unreadable file, solver error) don't abort the
/// batch — they surface in their status line and the summary's `failed`
/// count. `busy` answers retry with the same backoff as single submits.
fn cmd_submit_manifest(
    addr: &str,
    manifest_path: &str,
    retries: u32,
    retry_budget: Duration,
) -> CmdResult {
    use ghd_prng::Rng as _;
    use std::fmt::Write as _;
    let entries = parse_manifest(&read_file(manifest_path)?, manifest_path)?;
    let mut client = ghd_serve::Client::connect(addr)
        .map_err(|e| CmdError::no_input(format!("cannot connect to `{addr}`: {e}")))?;
    let mut rng = ghd_prng::SplitMix64::new(0x6768_645f_6d66_7374); // "ghd_mfst"
    let deadline = std::time::Instant::now() + retry_budget;
    let started = std::time::Instant::now();
    let mut out = String::new();
    let (mut ok_n, mut err_n, mut hits, mut exact_n) = (0usize, 0usize, 0usize, 0usize);
    for e in &entries {
        let instance = match read_file(&e.file) {
            Ok(text) => text,
            Err(err) => {
                err_n += 1;
                let _ = writeln!(out, "error {} {} (line {}): {}", e.verb, e.file, e.line_no, err);
                continue;
            }
        };
        let req = ghd_serve::Request::solve(None, &e.verb, &instance, &e.flags);
        let mut attempt = 0u32;
        let resp = loop {
            match client.request(&req) {
                Ok(resp) => {
                    let busy = !resp.ok
                        && resp.code == Some(503)
                        && resp.error.as_deref().is_some_and(|m| m.starts_with("busy"));
                    if !busy || attempt >= retries {
                        break Ok(resp);
                    }
                }
                Err(e) => break Err(e),
            }
            let base = 0.05 * f64::from(1u32 << attempt.min(10));
            let jitter = base * 0.5 * (rng.next_u64() as f64 / u64::MAX as f64);
            let pause = Duration::from_secs_f64(base + jitter);
            if std::time::Instant::now() + pause > deadline {
                attempt = retries; // budget spent: next answer is final
            } else {
                std::thread::sleep(pause);
            }
            attempt += 1;
        };
        match resp {
            Ok(resp) if resp.ok => {
                ok_n += 1;
                let cache = if resp.cache_hit == Some(true) { "hit" } else { "miss" };
                if resp.cache_hit == Some(true) {
                    hits += 1;
                }
                if resp.exact == Some(true) {
                    exact_n += 1;
                }
                let _ = writeln!(
                    out,
                    "ok {} {} exact={} cache={cache} wall_s={:.6}",
                    e.verb,
                    e.file,
                    resp.exact == Some(true),
                    resp.wall_s.unwrap_or(0.0),
                );
            }
            Ok(resp) => {
                err_n += 1;
                let _ = writeln!(
                    out,
                    "error {} {} (line {}): {}",
                    e.verb,
                    e.file,
                    e.line_no,
                    resp.error.unwrap_or_else(|| "unspecified server error".into()),
                );
            }
            Err(e) => {
                // the connection is gone; later entries would all fail the
                // same way, so the batch stops here with a loud line
                err_n += 1;
                let _ = writeln!(out, "error: transport failed, aborting batch: {e}");
                break;
            }
        }
    }
    let _ = writeln!(
        out,
        "manifest: {} instance(s) — {ok_n} ok ({hits} cache hit(s), {exact_n} exact), \
         {err_n} failed in {:.3}s",
        entries.len(),
        started.elapsed().as_secs_f64(),
    );
    Ok(out)
}

fn cmd_submit(args: &[String]) -> CmdResult {
    let usage = "submit <addr> tw|ghw <file> [flags…] | submit <addr> --manifest FILE | \
                 submit <addr> ping|stats|shutdown";
    let (retries, retry_budget, args) = retry_opts(args)?;
    let addr = args.first().ok_or(usage)?;
    let cmd = args.get(1).ok_or(usage)?.as_str();
    if cmd == "--manifest" {
        let path = args.get(2).ok_or("--manifest needs a file")?;
        if let Some(extra) = args.get(3) {
            return Err(CmdError::usage(format!(
                "unexpected argument `{extra}` after --manifest FILE"
            )));
        }
        return cmd_submit_manifest(addr, path, retries, retry_budget);
    }
    let req = match cmd {
        "tw" | "ghw" => {
            let path = args.get(2).ok_or(usage)?;
            let instance = read_file(path)?;
            // flags after the file go to the daemon verbatim
            ghd_serve::Request::solve(None, cmd, &instance, &args[3..])
        }
        "ping" | "stats" | "shutdown" => ghd_serve::Request::control(None, cmd),
        other => return Err(CmdError::usage(format!("unknown submit command `{other}`\n{usage}"))),
    };
    // exponential backoff with deterministic jitter: attempt k sleeps
    // 0.05 * 2^k seconds plus up to 50% of that again, drawn from a
    // fixed-seed SplitMix64 so a retry schedule is reproducible in tests
    // and in the field alike. The jitter still decorrelates concurrent
    // clients: each draws a different point in the stream per attempt
    // because each has its own generator *position* by the time it backs
    // off (connection establishment ordering differs), and the growing
    // base dominates any residual alignment.
    use ghd_prng::Rng as _;
    let mut rng = ghd_prng::SplitMix64::new(0x6768_645f_7375_626d); // "ghd_subm"
    let deadline = std::time::Instant::now() + retry_budget;
    let mut attempt = 0u32;
    loop {
        let (transient, err) = match submit_once(addr, &req) {
            Ok(body) => return Ok(body),
            Err(e) => e,
        };
        if !transient || attempt >= retries {
            return Err(err);
        }
        let base = 0.05 * f64::from(1u32 << attempt.min(10));
        let jitter = base * 0.5 * (rng.next_u64() as f64 / u64::MAX as f64);
        let pause = Duration::from_secs_f64(base + jitter);
        // never sleep past the budget: give up with the last error instead
        if std::time::Instant::now() + pause > deadline {
            return Err(err);
        }
        std::thread::sleep(pause);
        attempt += 1;
    }
}

fn describe(name: &str, ub: usize, lb: usize, exact: bool, cancelled: bool) -> String {
    if exact {
        format!("{name}: width = {ub} (exact)")
    } else if cancelled {
        format!("{name}: {lb} <= width <= {ub} (cancelled)")
    } else {
        format!("{name}: {lb} <= width <= {ub} (budget expired)")
    }
}

fn seed_of(opts: &[(&str, Option<&str>)]) -> Result<u64, String> {
    match opt(opts, "seed") {
        Some(s) => parse_num(s, "--seed"),
        None => Ok(0),
    }
}

fn ga_cfg(opts: &[(&str, Option<&str>)]) -> Result<GaConfig, String> {
    let mut cfg = GaConfig {
        population: 200,
        generations: 200,
        ..GaConfig::default()
    };
    if let Some(s) = opt(opts, "population") {
        cfg.population = parse_num(s, "--population")?;
    }
    if let Some(s) = opt(opts, "generations") {
        cfg.generations = parse_num(s, "--generations")?;
    }
    cfg.seed = seed_of(opts)?;
    if let Some(s) = opt(opts, "time") {
        let secs = parse_secs(s, "--time")?;
        cfg.time_limit = (secs > 0.0).then(|| Duration::from_secs_f64(secs));
    }
    Ok(cfg)
}

fn cmd_bounds(args: &[String]) -> CmdResult {
    let (pos, _) = split_opts(args);
    let path = *pos.first().ok_or("bounds <file> — see `ghd --help`")?;
    let text = read_file(path)?;
    // try hypergraph format first when the file smells like one
    if text.contains('(') {
        let h = io::parse_hypergraph(&text).map_err(CmdError::data)?;
        let lb = ghw_lower_bound::<ghd_prng::rngs::StdRng>(&h, None);
        let (ub, _) = ghw_upper_bound::<ghd_prng::rngs::StdRng>(&h, None);
        return Ok(format!(
            "hypergraph: {} vertices, {} hyperedges\n{lb} <= ghw <= {ub}\n",
            h.num_vertices(),
            h.num_edges()
        ));
    }
    let g = load_graph(&text)?;
    let lb = tw_lower_bound::<ghd_prng::rngs::StdRng>(&g, None);
    let (ub, _) = tw_upper_bound::<ghd_prng::rngs::StdRng>(&g, None);
    Ok(format!(
        "graph: {} vertices, {} edges\n{lb} <= tw <= {ub}\n",
        g.num_vertices(),
        g.num_edges()
    ))
}

fn cmd_validate(args: &[String]) -> CmdResult {
    let (pos, _) = split_opts(args);
    let inst_path = *pos.first().ok_or("validate <instance> <td-file>")?;
    let td_path = *pos.get(1).ok_or("validate <instance> <td-file>")?;
    let inst_text = read_file(inst_path)?;
    let td = parse_td(&read_file(td_path)?).map_err(CmdError::data)?;
    if inst_text.contains('(') {
        let h = io::parse_hypergraph(&inst_text).map_err(CmdError::data)?;
        td.verify(&h).map_err(|e| CmdError::data(format!("INVALID: {e}")))?;
        Ok(format!(
            "valid tree decomposition of the hypergraph; width {}\n",
            td.width()
        ))
    } else {
        let g = load_graph(&inst_text)?;
        td.verify_graph(&g).map_err(|e| CmdError::data(format!("INVALID: {e}")))?;
        Ok(format!(
            "valid tree decomposition of the graph; width {}\n",
            td.width()
        ))
    }
}

#[cfg(test)]
mod render_pins;

#[cfg(test)]
mod tests {
    use super::*;

    fn run_args(args: &[&str]) -> CmdResult {
        run(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    fn tmp(name: &str, content: &str) -> String {
        let path = std::env::temp_dir().join(format!("ghd-cli-test-{}-{name}", std::process::id()));
        std::fs::write(&path, content).expect("write temp file");
        path.to_string_lossy().into_owned()
    }

    #[test]
    fn help_and_unknown_commands() {
        assert!(run_args(&["--help"]).unwrap().contains("USAGE"));
        assert!(run_args(&[]).unwrap().contains("USAGE"));
        assert!(run_args(&["frobnicate"]).is_err());
    }

    #[test]
    fn gen_graph_families() {
        let col = run_args(&["gen", "grid", "3"]).unwrap();
        assert!(col.starts_with("p edge 9 12"));
        let gr = run_args(&["gen", "queen", "4", "--format", "gr"]).unwrap();
        assert!(gr.starts_with("p tw 16"));
        assert!(run_args(&["gen", "nosuch", "3"]).is_err());
        assert!(run_args(&["gen", "grid"]).is_err()); // missing param
    }

    #[test]
    fn gen_hypergraph_families() {
        let hg = run_args(&["gen", "adder", "3"]).unwrap();
        assert!(hg.contains("xor1_1("));
        assert!(run_args(&["gen", "adder", "3", "--format", "gr"]).is_err());
    }

    #[test]
    fn tw_pipeline_with_td_output_validates() {
        let col = run_args(&["gen", "grid", "3"]).unwrap();
        let gpath = tmp("g.col", &col);
        let out = run_args(&["tw", &gpath, "--method", "astar", "--td"]).unwrap();
        assert!(out.contains("width = 3 (exact)"), "{out}");
        // extract the .td part and validate it
        let td_start = out.find("s td").expect("td emitted");
        let td_path = tmp("g.td", &out[td_start..]);
        let v = run_args(&["validate", &gpath, &td_path]).unwrap();
        assert!(v.contains("valid tree decomposition"), "{v}");
    }

    /// The decomposition emitters print exactly what certification
    /// verified: full bodies pinned byte for byte.
    #[test]
    fn emitted_decompositions_match_the_recorded_bytes() {
        let hg = run_args(&["gen", "adder", "50"]).unwrap();
        let hpath = tmp("adder50.hg", &hg);
        let out = run_args(&["ghw", &hpath, "--method", "bb", "--show"]).unwrap();
        assert_eq!(out, include_str!("../tests/fixtures/adder50_bb.show"));
        let col = run_args(&["gen", "queen", "4"]).unwrap();
        let gpath = tmp("queen4.col", &col);
        let out = run_args(&["tw", &gpath, "--method", "bb", "--td"]).unwrap();
        assert_eq!(out, include_str!("../tests/fixtures/queen4_bb.td"));
        let out = run_args(&["tw", &gpath, "--method", "astar", "--td"]).unwrap();
        assert_eq!(out, include_str!("../tests/fixtures/queen4_astar.td"));
        let hg = run_args(&["gen", "grid2d-h", "6"]).unwrap();
        let hpath = tmp("grid2d_h6.hg", &hg);
        let out = run_args(&["ghw", &hpath, "--method", "astar", "--show"]).unwrap();
        assert_eq!(out, include_str!("../tests/fixtures/grid2d_h6_astar.show"));
    }

    #[test]
    fn ghw_pipeline_on_generated_hypergraph() {
        let hg = run_args(&["gen", "clique", "6"]).unwrap();
        let hpath = tmp("h.hg", &hg);
        let out = run_args(&["ghw", &hpath, "--method", "bb", "--show"]).unwrap();
        assert!(out.contains("width = 3 (exact)"), "{out}");
        assert!(out.contains("lambda"));
        let out = run_args(&["ghw", &hpath, "--method", "greedy"]).unwrap();
        assert!(out.contains("width <="));
    }

    #[test]
    fn bounds_on_both_kinds() {
        let col = run_args(&["gen", "myciel", "4"]).unwrap();
        let gpath = tmp("b.col", &col);
        let out = run_args(&["bounds", &gpath]).unwrap();
        assert!(out.contains("<= tw <="), "{out}");
        let hg = run_args(&["gen", "grid2d-h", "6"]).unwrap();
        let hpath = tmp("b.hg", &hg);
        let out = run_args(&["bounds", &hpath]).unwrap();
        assert!(out.contains("<= ghw <="), "{out}");
    }

    #[test]
    fn validate_rejects_bogus_decomposition() {
        let col = run_args(&["gen", "grid", "3"]).unwrap();
        let gpath = tmp("v.col", &col);
        // a single-bag decomposition that misses most vertices
        let td_path = tmp("v.td", "s td 1 1 9\nb 1 1\n");
        let out = run_args(&["validate", &gpath, &td_path]);
        assert!(out.is_err());
        let e = out.unwrap_err();
        assert!(e.message.contains("INVALID"));
        assert_eq!(e.kind, ErrorKind::Data);
        assert_eq!(e.exit_code(), 65);
    }

    #[test]
    fn error_kinds_map_to_sysexits_codes() {
        // usage: unknown command / method / bad flag value → 64
        assert_eq!(run_args(&["frobnicate"]).unwrap_err().exit_code(), 64);
        let col = run_args(&["gen", "grid", "3"]).unwrap();
        let gpath = tmp("codes.col", &col);
        assert_eq!(
            run_args(&["tw", &gpath, "--method", "nosuch"]).unwrap_err().exit_code(),
            64
        );
        assert_eq!(
            run_args(&["tw", &gpath, "--time", "-1"]).unwrap_err().exit_code(),
            64
        );
        // missing input file → 66
        let e = run_args(&["tw", "/nonexistent/definitely-not-here.col"]).unwrap_err();
        assert_eq!(e.kind, ErrorKind::NoInput);
        assert_eq!(e.exit_code(), 66);
        // parse errors in input data → 65
        let bad = tmp("codes-bad.col", "p edge 3 1\ne 1 99\n");
        let e = run_args(&["tw", &bad]).unwrap_err();
        assert_eq!(e.kind, ErrorKind::Data, "{e}");
        assert_eq!(e.exit_code(), 65);
        let bad_hg = tmp("codes-bad.hg", "e1(a,b\n");
        let e = run_args(&["ghw", &bad_hg]).unwrap_err();
        assert_eq!(e.kind, ErrorKind::Data, "{e}");
        // a header-DoS attempt is a *data* error too, and is fast
        let dos = tmp("codes-dos.col", "p edge 99999999999 1\n");
        let e = run_args(&["tw", &dos]).unwrap_err();
        assert_eq!(e.kind, ErrorKind::Data, "{e}");
        assert!(e.message.contains("implausible"), "{e}");
        // internal errors render loudly
        let internal = CmdError::internal("certificate rejected: test");
        assert_eq!(internal.exit_code(), 70);
        assert!(internal.to_string().starts_with("InternalError: certificate rejected"));
    }

    #[test]
    fn budget_expired_is_not_an_error() {
        // exit code 0 (Ok) with an explanatory note, per the anytime contract
        let col = run_args(&["gen", "queen", "7"]).unwrap();
        let gpath = tmp("budget0.col", &col);
        let out = run_args(&["tw", &gpath, "--method", "bb", "--nodes", "50"]).unwrap();
        assert!(out.contains("(budget expired)"), "{out}");
    }

    #[test]
    fn widths_are_certified_on_every_emission_path() {
        use ghd_core::json::Json;
        // every method's printed width passes independent verification
        let col = run_args(&["gen", "queen", "4"]).unwrap();
        let gpath = tmp("cert.col", &col);
        for m in ["astar", "bb", "ga", "sa", "minfill"] {
            let out = run_args(&[
                "tw", &gpath, "--method", m, "--generations", "20", "--population", "30",
            ]);
            assert!(out.is_ok(), "{m}: {out:?}");
        }
        let hg = run_args(&["gen", "clique", "6"]).unwrap();
        let hpath = tmp("cert.hg", &hg);
        for m in ["astar", "bb", "ga", "saiga", "sa", "greedy"] {
            let out = run_args(&[
                "ghw", &hpath, "--method", m, "--generations", "20", "--population", "30",
            ]);
            assert!(out.is_ok(), "{m}: {out:?}");
        }
        // the stats JSON carries the certification verdict and fault list
        let out = run_args(&["ghw", &hpath, "--method", "bb", "--stats", "json"]).unwrap();
        let v = Json::parse(&out).expect("stats JSON");
        assert_eq!(v.get("certified").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("faults").and_then(Json::as_array).map(<[Json]>::len), Some(0));
    }

    #[test]
    fn certification_rejects_a_forged_width() {
        // drive the certifier directly with a claim the ordering cannot
        // support: queen(4) has treewidth 9, claiming 2 must be rejected
        let g = graphs::queen(4);
        let ordering: Vec<usize> = (0..g.num_vertices()).collect();
        let e = g.certify(&ordering, 2, true, false).unwrap_err();
        assert_eq!(e.kind, ErrorKind::Internal);
        assert_eq!(e.exit_code(), 70);
        assert!(e.to_string().contains("certificate rejected"), "{e}");
        // and a non-permutation "ordering" is rejected before verification
        let e = g.certify(&[0, 0, 1], 2, false, false).unwrap_err();
        assert_eq!(e.kind, ErrorKind::Internal);
        // same for the ghw certifier
        let h = hypergraphs::clique(6);
        let ordering: Vec<usize> = (0..h.num_vertices()).collect();
        for every_bag in [false, true] {
            let e = h.certify(&ordering, 1, true, every_bag).unwrap_err();
            assert_eq!(e.kind, ErrorKind::Internal);
            assert!(e.to_string().contains("certificate rejected"), "{e}");
        }
    }

    #[test]
    fn time_zero_means_unlimited_and_nodes_caps_expansions() {
        let args = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let a = args(&["--time", "0"]);
        let (_, opts) = split_opts(&a);
        let l = limits_from(&opts).unwrap();
        assert_eq!(l.time_limit, None);
        assert_eq!(l.max_nodes, None);
        let a = args(&["--nodes", "500"]);
        let (_, opts) = split_opts(&a);
        let l = limits_from(&opts).unwrap();
        assert_eq!(l.time_limit, None, "--nodes alone disables the default wall clock");
        assert_eq!(l.max_nodes, Some(500));
        // default: 10 s wall clock
        let a = args(&[]);
        let (_, opts) = split_opts(&a);
        let l = limits_from(&opts).unwrap();
        assert_eq!(l.time_limit, Some(Duration::from_secs(10)));
        // negative time is rejected
        let a = args(&["--time", "-1"]);
        let (_, opts) = split_opts(&a);
        assert!(limits_from(&opts).is_err());
    }

    #[test]
    fn expired_budget_prints_anytime_bounds() {
        let col = run_args(&["gen", "queen", "7"]).unwrap();
        let gpath = tmp("budget.col", &col);
        let out = run_args(&["tw", &gpath, "--method", "bb", "--nodes", "50"]).unwrap();
        assert!(out.contains("<= width <="), "{out}");
        assert!(out.contains("(budget expired)"), "{out}");
    }

    #[test]
    fn stats_json_is_parseable_and_complete() {
        use ghd_core::json::Json;
        let hg = run_args(&["gen", "clique", "6"]).unwrap();
        let hpath = tmp("stats.hg", &hg);
        for method in ["astar", "bb"] {
            let out = run_args(&["ghw", &hpath, "--method", method, "--stats", "json"]).unwrap();
            let v = Json::parse(&out).unwrap_or_else(|e| panic!("{method}: bad JSON: {e:?}"));
            assert_eq!(v.get("problem").and_then(Json::as_str), Some("ghw"), "{method}");
            assert_eq!(v.get("exact").and_then(Json::as_bool), Some(true), "{method}");
            assert_eq!(v.get("upper_bound").and_then(Json::as_f64), Some(3.0), "{method}");
            let stats = v.get("stats").expect("stats object");
            let incumbents = stats
                .get("incumbents")
                .and_then(Json::as_array)
                .unwrap_or_else(|| panic!("{method}: incumbents array"));
            assert!(!incumbents.is_empty(), "{method}: incumbent trace is non-empty");
            for inc in incumbents {
                let lb = inc.get("lower_bound").and_then(Json::as_f64).unwrap();
                let ub = inc.get("upper_bound").and_then(Json::as_f64).unwrap();
                assert!(lb <= ub, "{method}: incumbent lb <= ub");
            }
            assert!(stats.get("prunes").is_some(), "{method}: prune counters");
        }
        // graphs too, and the flag composes with --nodes
        let col = run_args(&["gen", "grid", "3"]).unwrap();
        let gpath = tmp("stats.col", &col);
        let out =
            run_args(&["tw", &gpath, "--method", "bb", "--stats", "json", "--nodes", "100000"])
                .unwrap();
        let v = Json::parse(&out).expect("tw stats JSON");
        assert_eq!(v.get("problem").and_then(Json::as_str), Some("tw"));
        // GA has no search telemetry; asking for it is an error, not silence
        assert!(run_args(&["tw", &gpath, "--method", "ga", "--stats", "json"]).is_err());
        assert!(run_args(&["tw", &gpath, "--stats", "xml"]).is_err());
        assert!(run_args(&["tw", &gpath, "--stats"]).is_err());
    }

    #[test]
    fn threads_flag_runs_the_work_stealing_search() {
        use ghd_core::json::Json;
        // parallel output is identical to sequential — same width, same
        // summary — because widths and orderings are schedule-independent
        let col = run_args(&["gen", "queen", "4"]).unwrap();
        let gpath = tmp("steal.col", &col);
        let seq = run_args(&["tw", &gpath, "--method", "bb"]).unwrap();
        for t in ["1", "2", "4"] {
            let par = run_args(&["tw", &gpath, "--method", "bb", "--threads", t]).unwrap();
            assert_eq!(par, seq, "threads {t}");
        }
        let hg = run_args(&["gen", "grid2d-h", "5"]).unwrap();
        let hpath = tmp("steal.hg", &hg);
        let seq = run_args(&["ghw", &hpath, "--method", "bb"]).unwrap();
        let par = run_args(&[
            "ghw", &hpath, "--method", "bb", "--threads", "4", "--steal-depth", "2",
        ])
        .unwrap();
        assert_eq!(par, seq);
        // the stats JSON carries per-worker steal counters
        let out = run_args(&[
            "ghw", &hpath, "--method", "bb", "--threads", "2", "--stats", "json",
        ])
        .unwrap();
        let v = Json::parse(&out).expect("stats JSON");
        let steals = v
            .get("stats")
            .and_then(|s| s.get("worker_steals"))
            .and_then(Json::as_array)
            .expect("worker_steals array");
        assert_eq!(steals.len(), 2, "one counter block per worker");
        let executed: f64 = steals
            .iter()
            .map(|s| s.get("executed").and_then(Json::as_f64).unwrap())
            .sum();
        let published: f64 = steals
            .iter()
            .map(|s| s.get("published").and_then(Json::as_f64).unwrap())
            .sum();
        assert_eq!(executed, published + 1.0, "seed + each publication once");
        // flag validation
        assert!(run_args(&["tw", &gpath, "--method", "bb", "--steal-depth", "2"]).is_err());
        assert!(run_args(&["tw", &gpath, "--method", "astar", "--threads", "2"]).is_err());
        assert!(run_args(&["tw", &gpath, "--method", "bb", "--threads"]).is_err());
        assert!(
            run_args(&["tw", &gpath, "--method", "bb", "--threads", "2", "--steal-depth", "0"])
                .is_err()
        );
    }

    #[test]
    fn no_split_with_one_thread_runs_the_sequential_search() {
        use ghd_core::json::Json;
        // `--threads 1` without splitting expands exactly the sequential
        // search's nodes and reports no steal counters
        let stats = |args: &[&str]| {
            let v = Json::parse(&run_args(args).unwrap()).expect("stats JSON");
            let steals = v
                .get("stats")
                .and_then(|s| s.get("worker_steals"))
                .and_then(Json::as_array)
                .expect("worker_steals array")
                .len();
            let number = |key: &str| v.get(key).and_then(Json::as_f64).expect(key);
            (number("upper_bound"), number("nodes_expanded"), steals)
        };
        let col = run_args(&["gen", "myciel", "4"]).unwrap();
        let gpath = tmp("one_thread.col", &col);
        let hg = run_args(&["gen", "grid2d-h", "5"]).unwrap();
        let hpath = tmp("one_thread.hg", &hg);
        for (cmd, path) in [("tw", &gpath), ("ghw", &hpath)] {
            let flags = "--method bb --time 0 --no-split --stats json".split(' ');
            let base: Vec<&str> = [cmd, path.as_str()].into_iter().chain(flags).collect();
            let seq = stats(&base);
            let one = stats(&[&base[..], &["--threads", "1"]].concat());
            assert_eq!(one, seq, "{cmd} --no-split --threads 1");
            assert_eq!(one.2, 0, "{cmd}: no steal counters");
            let two = stats(&[&base[..], &["--threads", "2"]].concat());
            assert_eq!(two.0, seq.0, "{cmd} --threads 2 width");
            assert_eq!(two.2, 2, "{cmd} --threads 2 still steals");
        }
    }

    #[test]
    fn budget_and_thread_flags_reject_junk_with_exit_64() {
        let col = run_args(&["gen", "grid", "3"]).unwrap();
        let gpath = tmp("junk.col", &col);
        // every budget/thread flag rejects non-numeric and out-of-domain
        // values the same way: usage error, exit 64, never a panic.
        // (`f64::from_str` accepts `inf`/`nan`; `inf` used to reach
        // `Duration::from_secs_f64` and abort, `nan` slipped past every
        // sign check and silently meant "unlimited".)
        let cases: &[&[&str]] = &[
            &["tw", &gpath, "--time", "abc"],
            &["tw", &gpath, "--time", "inf"],
            &["tw", &gpath, "--time", "+infinity"],
            &["tw", &gpath, "--time", "nan"],
            &["tw", &gpath, "--time", "-1"],
            &["tw", &gpath, "--nodes", "-1"],
            &["tw", &gpath, "--nodes", "abc"],
            &["tw", &gpath, "--nodes", "1.5"],
            &["tw", &gpath, "--method", "bb", "--threads", "-2"],
            &["tw", &gpath, "--method", "bb", "--threads", "abc"],
            &["tw", &gpath, "--method", "ga", "--time", "inf"],
            &["tw", &gpath, "--method", "ga", "--time", "nan"],
        ];
        for case in cases {
            let e = run_args(case).expect_err(&format!("{case:?} must be rejected"));
            assert_eq!(e.kind, ErrorKind::Usage, "{case:?}: {e}");
            assert_eq!(e.exit_code(), 64, "{case:?}");
            assert!(e.message.starts_with("bad --"), "{case:?}: {e}");
        }
        // `--time 0` stays the documented "unlimited" escape hatch, and
        // `0` threads means "all cores", not a rejection
        assert!(run_args(&["tw", &gpath, "--time", "0"]).is_ok());
        assert!(run_args(&["tw", &gpath, "--method", "bb", "--threads", "0"]).is_ok());
    }

    #[test]
    fn solve_text_entry_points_match_the_file_commands() {
        // the serve daemon calls these directly; byte-identity with the
        // one-shot CLI is the contract
        let col = run_args(&["gen", "queen", "4"]).unwrap();
        let gpath = tmp("solve.col", &col);
        let args: Vec<String> = vec!["--method".into(), "bb".into()];
        let report = solve_tw_text_with_store(&col, &args, CancelToken::default(), None).unwrap();
        let oneshot =
            run_args(&["tw", &gpath, "--method", "bb"]).unwrap();
        assert_eq!(report.body, oneshot);
        assert!(report.exact && report.certified && report.cacheable);
        assert!(report.nodes_expanded > 0);
        assert_eq!(report.width, 11);

        let hg = run_args(&["gen", "clique", "6"]).unwrap();
        let hpath = tmp("solve.hg", &hg);
        let report = solve_ghw_text_with_store(&hg, &args, CancelToken::default(), None).unwrap();
        let oneshot = run_args(&["ghw", &hpath, "--method", "bb"]).unwrap();
        assert_eq!(report.body, oneshot);
        assert_eq!(report.width, 3);
        // heuristic answers are certified upper bounds but never cacheable
        let ga: Vec<String> =
            ["--method", "ga", "--generations", "10", "--population", "20"]
                .iter().map(|s| s.to_string()).collect();
        let report = solve_tw_text_with_store(&col, &ga, CancelToken::default(), None).unwrap();
        assert!(report.certified && !report.exact && !report.cacheable);
        // stats bodies are never cacheable either (embedded wall clock)
        let stats: Vec<String> =
            ["--method", "bb", "--stats", "json"].iter().map(|s| s.to_string()).collect();
        let report = solve_ghw_text_with_store(&hg, &stats, CancelToken::default(), None).unwrap();
        assert!(report.exact && report.certified && !report.cacheable);
    }

    #[test]
    fn cancelled_solve_reports_certified_anytime_bounds() {
        // a pre-cancelled token stops the search at its first periodic
        // budget draw; the report must carry bounds, not an error
        let col = run_args(&["gen", "queen", "6"]).unwrap();
        let args: Vec<String> = vec!["--method".into(), "bb".into(), "--time".into(), "0".into()];
        let token = CancelToken::arm();
        token.cancel();
        let report = solve_tw_text_with_store(&col, &args, token, None).unwrap();
        assert!(report.cancelled, "{}", report.body);
        assert!(!report.exact);
        assert!(!report.cacheable, "anytime answers never enter the cache");
        assert!(report.certified, "BB's min-fill incumbent re-verifies");
        assert!(report.body.contains("<= width <="), "{}", report.body);
        assert!(report.body.contains("(cancelled)"), "{}", report.body);

        // the inert default token never fires: same args solve exactly
        let report = solve_tw_text_with_store(&col, &args, CancelToken::default(), None).unwrap();
        assert!(report.exact && !report.cancelled);

        // --stats json spells the same outcome machine-readably
        let stats: Vec<String> =
            ["--method", "bb", "--time", "0", "--stats", "json"].iter().map(|s| s.to_string()).collect();
        let token = CancelToken::arm();
        token.cancel();
        let report = solve_tw_text_with_store(&col, &stats, token, None).unwrap();
        assert!(report.cancelled);
        assert!(report.body.contains("\"cancelled\": true"), "{}", report.body);
    }

    #[test]
    fn submit_retry_flags_are_stripped_and_validated() {
        // client-side flags are consumed here, never forwarded
        let args: Vec<String> =
            ["addr", "tw", "f.col", "--method", "bb", "--retries", "3", "--retry-budget", "2.5"]
                .iter().map(|s| s.to_string()).collect();
        let (retries, budget, rest) = retry_opts(&args).unwrap();
        assert_eq!(retries, 3);
        assert_eq!(budget, Duration::from_secs_f64(2.5));
        assert_eq!(rest, strings(&["addr", "tw", "f.col", "--method", "bb"]));

        // defaults: no retries, 30 s budget
        let (retries, budget, _) = retry_opts(&strings(&["addr", "ping"])).unwrap();
        assert_eq!((retries, budget), (0, Duration::from_secs(30)));

        // junk values are usage errors → exit 64 (the daemon never sees them)
        for junk in [
            vec!["addr", "ping", "--retries", "x"],
            vec!["addr", "ping", "--retries"],
            vec!["addr", "ping", "--retry-budget", "inf"],
            vec!["addr", "ping", "--retry-budget", "-1"],
        ] {
            let e = run_args(&[&["submit"], junk.as_slice()].concat())
                .expect_err(&format!("{junk:?} must be rejected"));
            assert_eq!(e.exit_code(), 64, "{junk:?}: {e}");
        }

        // a refused connection with retries exhausts the budget and still
        // surfaces the connect error (no daemon ever listens here)
        let t0 = std::time::Instant::now();
        let e = run_args(&[
            "submit", "127.0.0.1:1", "ping", "--retries", "2", "--retry-budget", "0.25",
        ])
        .expect_err("nothing listens on port 1");
        assert_eq!(e.kind, ErrorKind::NoInput, "{e}");
        assert!(t0.elapsed() >= Duration::from_millis(50), "at least one backoff ran");
        assert!(t0.elapsed() < Duration::from_secs(5), "the budget caps the loop");
    }

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn ga_and_sa_methods_produce_upper_bounds() {
        let col = run_args(&["gen", "queen", "4"]).unwrap();
        let gpath = tmp("ga.col", &col);
        for m in ["ga", "sa", "minfill"] {
            let out = run_args(&["tw", &gpath, "--method", m, "--generations", "30", "--population", "40"]).unwrap();
            assert!(out.contains("width <="), "{m}: {out}");
        }
    }
}
