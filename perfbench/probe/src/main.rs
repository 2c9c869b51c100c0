//! In-process half of the ghd benchmark (`perfbench/run.py` drives it).
//!
//! ```text
//! perfprobe reference TASKS
//! perfprobe trace TASKS --seconds S --spans OUT --log SCRATCH
//!           [--replay LOG] [--warm TASKS]
//! perfprobe calibrate
//! ```
//!
//! A task file has one request per line: `key<TAB>cmd<TAB>path<TAB>args`,
//! with `args` the space-separated solve flags.
//!
//! `reference` solves every task with the one-shot solve path
//! ([`solve_tw_text`] / [`solve_ghw_text`]) and prints one JSON line per
//! task: the expected body, its FNV-1a digest, and whether the answer is
//! exact and certified.
//!
//! `trace` is the traced pass: it loops over the tasks until `S` seconds
//! have passed and records a span around each public call a request goes
//! through. The spans stay in memory and are written to `OUT` (one JSON
//! object per line) when the pass ends. Every request has a root span
//! `request`, a child `cli.solve_text` around the real solve path, and a
//! child `layers` whose children re-run the pipeline one public call at a
//! time: parse, canonical key, cache probe, separators, preprocessing,
//! bounds, search, witness, certification and cache-log append. Cache-log
//! replays are spans of request 0: [`REPLAYS`] of `LOG` with `--replay`,
//! else one of the records the first distinct requests appended.
//!
//! `--warm TASKS` gives the pass block caches, as the daemon has one, and
//! solves `TASKS` into them before the timed loop. The solve path and the
//! layer re-run each get their own: the re-run's cache holds only the
//! warm-up's blocks and those of earlier requests, so its hits are blocks
//! shared across instances, never a request's own blocks from its solve.
//!
//! `calibrate` runs [`reference_work`], a fixed computation that uses no
//! code of the repository, once for each line it reads from stdin, and
//! answers each with one line. The benchmark times it in between requests
//! to follow the speed of the machine.

use ghd_bounds::{ghw_lower_bound, ghw_upper_bound, tw_lower_bound, tw_upper_bound};
use ghd_cli::{load_graph, solve_ghw_text_with_store, solve_tw_text_with_store, BlockCache, CliSolver};
use ghd_core::bucket::{ghd_from_ordering, vertex_elimination};
use ghd_core::canon::log::CacheLog;
use ghd_core::canon::{CachedDecomp, DecompCache};
use ghd_core::json::escape;
use ghd_core::{CoverMethod, EliminationOrdering};
use ghd_hypergraph::separators::{biconnected_components, clique_separator_atoms, hypergraph_components};
use ghd_hypergraph::{io, Graph, Hypergraph};
use ghd_prng::rngs::StdRng;
use ghd_search::{
    astar_ghw, astar_tw, preprocess_tw, split_ghw, split_tw, witness_ghw, witness_tw, BbConfig,
    BbGhwConfig, BlockStore, Budget, CancelToken, SearchLimits, SearchResult,
};
use ghd_serve::Solver;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// One request of a task file.
struct Task {
    key: String,
    cmd: String,
    text: String,
    args: Vec<String>,
}

fn read_tasks(path: &str) -> Result<Vec<Task>, String> {
    let listing = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    let mut tasks = Vec::new();
    for (n, line) in listing.lines().enumerate().filter(|(_, l)| !l.is_empty()) {
        let cols: Vec<&str> = line.split('\t').collect();
        let [key, cmd, file, args] = cols[..] else {
            return Err(format!("{path}:{}: expected 4 tab-separated columns", n + 1));
        };
        if cmd != "tw" && cmd != "ghw" {
            return Err(format!("{path}:{}: unknown command `{cmd}`", n + 1));
        }
        let text = std::fs::read_to_string(file).map_err(|e| format!("cannot read `{file}`: {e}"))?;
        tasks.push(Task {
            key: key.to_string(),
            cmd: cmd.to_string(),
            text,
            args: args.split_whitespace().map(String::from).collect(),
        });
    }
    if tasks.is_empty() {
        return Err(format!("{path}: no tasks"));
    }
    Ok(tasks)
}

/// FNV-1a over the body bytes; `run.py` computes the same digest.
fn digest(s: &str) -> String {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    format!("{h:016x}")
}

/// The one-shot solve path, optionally with a cross-instance block store
/// (the daemon passes its `BlockCache`; the CLI passes none).
fn solve_text(t: &Task, store: Option<&dyn BlockStore>) -> Result<ghd_cli::SolveReport, String> {
    let cancel = CancelToken::default();
    let r = match t.cmd.as_str() {
        "tw" => solve_tw_text_with_store(&t.text, &t.args, cancel, store),
        _ => solve_ghw_text_with_store(&t.text, &t.args, cancel, store),
    };
    r.map_err(|e| format!("{}: {e}", t.key))
}

fn reference(tasks_path: &str) -> Result<(), String> {
    for t in read_tasks(tasks_path)? {
        let t0 = Instant::now();
        let r = solve_text(&t, None)?;
        let secs = t0.elapsed().as_secs_f64();
        println!(
            "{{\"key\": \"{}\", \"digest\": \"{}\", \"width\": {}, \"exact\": {}, \"certified\": {}, \
             \"cacheable\": {}, \"nodes\": {}, \"secs\": {secs:.6}, \"body\": \"{}\"}}",
            escape(&t.key),
            digest(&r.body),
            r.width,
            r.exact,
            r.certified,
            r.cacheable,
            r.nodes_expanded,
            escape(&r.body)
        );
    }
    Ok(())
}

/// A recorded span. `parent` 0 means none; ids start at 1.
struct Span {
    parent: usize,
    req: usize,
    name: &'static str,
    start: Duration,
    end: Duration,
    attrs: String,
}

/// In-memory span recorder; nothing is written until [`Tracer::write`].
struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn begin(&mut self, name: &'static str, parent: usize, req: usize) -> usize {
        let now = self.t0.elapsed();
        self.spans.push(Span { parent, req, name, start: now, end: now, attrs: String::new() });
        self.spans.len()
    }

    fn end(&mut self, id: usize) {
        self.spans[id - 1].end = self.t0.elapsed();
    }

    /// Appends `"key": value` to the span's attributes (value is raw JSON).
    fn attr(&mut self, id: usize, key: &str, value: impl std::fmt::Display) {
        let a = &mut self.spans[id - 1].attrs;
        let _ = write!(a, ", \"{key}\": {value}");
    }

    /// Times `f` as a child span of `parent`.
    fn time<T>(&mut self, name: &'static str, parent: usize, req: usize, f: impl FnOnce() -> T) -> (T, usize) {
        let id = self.begin(name, parent, req);
        let out = std::hint::black_box(f());
        self.end(id);
        (out, id)
    }

    fn write(&self, path: &Path) -> Result<(), String> {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let _ = writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"req\": {}, \"name\": \"{}\", \"start_s\": {:.9}, \
                 \"end_s\": {:.9}{}}}",
                i + 1,
                s.parent,
                s.req,
                s.name,
                s.start.as_secs_f64(),
                s.end.as_secs_f64(),
                s.attrs
            );
        }
        std::fs::write(path, out).map_err(|e| format!("cannot write `{}`: {e}", path.display()))
    }
}

enum Inst {
    G(Graph),
    H(Hypergraph),
}

struct TraceOpts {
    tasks: String,
    seconds: f64,
    spans: PathBuf,
    log: PathBuf,
    replay: Option<PathBuf>,
    warm: Option<String>,
}

/// Replays of a `--replay` log; the median is reported.
const REPLAYS: usize = 3;

fn parse_trace_opts(args: &[String]) -> Result<TraceOpts, String> {
    let tasks = args.first().ok_or("trace: missing TASKS")?.clone();
    let mut o = TraceOpts {
        tasks,
        seconds: 0.0,
        spans: PathBuf::new(),
        log: PathBuf::new(),
        replay: None,
        warm: None,
    };
    let mut it = args[1..].iter();
    while let Some(flag) = it.next() {
        let v = it.next().ok_or_else(|| format!("trace: {flag} needs a value"))?;
        let num = |what: &str| v.parse::<f64>().map_err(|_| format!("trace: bad {what} `{v}`"));
        match flag.as_str() {
            "--seconds" => o.seconds = num("--seconds")?,
            "--spans" => o.spans = PathBuf::from(v),
            "--log" => o.log = PathBuf::from(v),
            "--replay" => o.replay = Some(PathBuf::from(v)),
            "--warm" => o.warm = Some(v.clone()),
            other => return Err(format!("trace: unknown flag `{other}`")),
        }
    }
    if o.spans.as_os_str().is_empty() || o.log.as_os_str().is_empty() {
        return Err("trace: --spans and --log are required".into());
    }
    Ok(o)
}

fn method(args: &[String]) -> &str {
    args.iter()
        .position(|a| a == "--method")
        .and_then(|i| args.get(i + 1))
        .map_or("astar", String::as_str)
}

/// Search limits of the traced pass: the CLI's default 10 s budget with
/// telemetry on. A pass whose search does not finish is reported, not
/// hidden: the caller checks `exact`.
fn limits() -> SearchLimits {
    SearchLimits::with_time(Duration::from_secs(10)).stats(true)
}

/// Replays `path` the way the daemon boots: structural check plus the
/// solver's replay verification; returns the admitted records.
fn replay(
    tr: &mut Tracer,
    solver: &CliSolver,
    path: &Path,
) -> Result<Vec<ghd_core::canon::log::LogRecord>, String> {
    let id = tr.begin("core.cachelog_replay", 0, 0);
    let opened = CacheLog::open(path, |r| solver.verify_replay(&r.key));
    tr.end(id);
    let (_, records, report) = opened.map_err(|e| format!("cannot replay `{}`: {e}", path.display()))?;
    let bytes = file_len(path)?;
    tr.attr(id, "records", report.replayed);
    tr.attr(id, "rejects", report.verify_rejects);
    tr.attr(id, "bytes", bytes);
    if report.verify_rejects > 0 || report.truncated() {
        return Err(format!("replay of `{}` was not clean: {report:?}", path.display()));
    }
    Ok(records)
}

/// Block caches of the pass: one for the solve path, one for the layer
/// re-run (see the module docs).
struct Stores {
    solve: BlockCache,
    layers: BlockCache,
}

/// One traced request: the real solve path, then the layer-by-layer
/// re-run. Fails on any answer that is not exact and certified.
#[allow(clippy::too_many_arguments)]
fn trace_request(
    tr: &mut Tracer,
    req: usize,
    t: &Task,
    solver: &CliSolver,
    cache: &mut DecompCache,
    log: &mut CacheLog,
    stores: Option<&Stores>,
) -> Result<(), String> {
    let solve_store = stores.map(|s| &s.solve as &dyn BlockStore);
    let layer_store = stores.map(|s| &s.layers as &dyn BlockStore);
    let root = tr.begin("request", 0, req);
    let (report, sid) = tr.time("cli.solve_text", root, req, || solve_text(t, solve_store));
    let report = report?;
    if !(report.exact && report.certified) {
        return Err(format!("{}: traced solve not exact and certified", t.key));
    }
    tr.attr(sid, "key", format_args!("\"{}\"", escape(&t.key)));
    tr.attr(sid, "digest", format_args!("\"{}\"", digest(&report.body)));

    let layers = tr.begin("layers", root, req);
    let (inst, _) = tr.time("hypergraph.parse", layers, req, || match t.cmd.as_str() {
        "tw" => load_graph(&t.text).map(Inst::G).map_err(|e| e.to_string()),
        _ => io::parse_hypergraph(&t.text).map(Inst::H).map_err(|e| e.to_string()),
    });
    let inst = inst?;
    let (key, _) = tr.time("core.canon_key", layers, req, || solver.cache_key(&t.cmd, &t.text, &t.args));
    let key = key.ok_or_else(|| format!("{}: no cache key", t.key))?;
    let (hit, pid) = tr.time("core.cache_probe", layers, req, || cache.probe(&key));
    tr.attr(pid, "hit", hit.is_some());
    let (blocks, sep) = tr.time("hypergraph.separators", layers, req, || match &inst {
        Inst::G(g) => {
            let bc = biconnected_components(g);
            let atoms = clique_separator_atoms(g);
            bc.blocks.len().max(atoms.atoms.len())
        }
        Inst::H(h) => hypergraph_components(h).len(),
    });
    tr.attr(sep, "blocks", blocks);
    if let Inst::G(g) = &inst {
        let (pre, id) = tr.time("search.preprocess", layers, req, || preprocess_tw(g));
        tr.attr(id, "eliminated", pre.eliminated.len());
    }
    match &inst {
        Inst::G(g) => {
            tr.time("bounds.lower", layers, req, || tw_lower_bound::<StdRng>(g, None));
            tr.time("bounds.upper", layers, req, || tw_upper_bound::<StdRng>(g, None));
        }
        Inst::H(h) => {
            tr.time("bounds.lower", layers, req, || ghw_lower_bound::<StdRng>(h, None));
            tr.time("bounds.upper", layers, req, || ghw_upper_bound::<StdRng>(h, None));
        }
    }
    let bb = method(&t.args) == "bb";
    let (outcome, search) = tr.time("search.solve", layers, req, || match (&inst, bb) {
        (Inst::G(g), false) => (astar_tw(g, limits()), None),
        (Inst::H(h), false) => (astar_ghw(h, limits()), None),
        (Inst::G(g), true) => {
            let o = split_tw(g, &BbConfig { limits: limits(), ..BbConfig::default() }, 1, layer_store);
            (o.result, Some(o.report))
        }
        (Inst::H(h), true) => {
            let o = split_ghw(h, &BbGhwConfig { limits: limits(), ..BbGhwConfig::default() }, 1, layer_store);
            (o.result, Some(o.report))
        }
    });
    let (result, split): (SearchResult, _) = outcome;
    if !result.exact || result.upper_bound != report.width {
        return Err(format!("{}: traced search disagrees with the solve path", t.key));
    }
    tr.attr(search, "nodes", result.nodes_expanded);
    if let Some(st) = &result.stats {
        tr.attr(search, "seen_peak_bytes", st.seen_peak_bytes);
        tr.attr(search, "open_peak_bytes", st.open_peak_bytes);
    }
    if let Some(c) = &result.cover_cache {
        tr.attr(search, "cover_hits", c.hits);
        tr.attr(search, "cover_misses", c.misses);
    }
    if let Some(rep) = &split {
        tr.attr(search, "split_blocks", rep.blocks.len());
        tr.attr(search, "block_hits", rep.blocks.iter().filter(|b| b.cache_hit).count());
    }
    if bb {
        let budget = Budget::new(&limits());
        let width = result.upper_bound;
        let ((_, wnodes), id) = tr.time("search.witness", layers, req, || match &inst {
            Inst::G(g) => witness_tw(g, width, &BbConfig { limits: limits(), ..BbConfig::default() }, &budget),
            Inst::H(h) => {
                witness_ghw(h, width, &BbGhwConfig { limits: limits(), ..BbGhwConfig::default() }, &budget)
            }
        });
        tr.attr(id, "nodes", wnodes);
    }
    let ordering = result.ordering.clone().ok_or_else(|| format!("{}: no ordering", t.key))?;
    let (certified, _) = tr.time("core.certify", layers, req, || {
        let sigma = EliminationOrdering::new(ordering).ok_or("ordering is not a permutation")?;
        match &inst {
            Inst::G(g) => {
                let td = vertex_elimination(g, &sigma);
                td.verify_graph(g).map_err(|e| e.to_string())?;
                Ok::<usize, String>(td.width())
            }
            Inst::H(h) => {
                let ghd = ghd_from_ordering(h, &sigma, CoverMethod::Exact);
                ghd.verify(h).map_err(|e| e.to_string())?;
                Ok(ghd.width())
            }
        }
    });
    if certified? != report.width {
        return Err(format!("{}: certificate width differs from the answer", t.key));
    }
    let value = CachedDecomp { body: report.body, width: report.width };
    let (appended, _) = tr.time("core.cachelog_append", layers, req, || log.append(&key, &value));
    appended.map_err(|e| format!("cache-log append failed: {e}"))?;
    tr.end(layers);
    tr.end(root);
    if hit.is_none() {
        cache.admit(key, value);
    }
    Ok(())
}

fn trace(args: &[String]) -> Result<(), String> {
    let o = parse_trace_opts(args)?;
    let tasks = read_tasks(&o.tasks)?;
    let solver = CliSolver::default();
    let mut stores = None;
    if let Some(warm) = &o.warm {
        // untimed: the daemon's block cache is warm before its timed phase too
        let s = Stores { solve: BlockCache::default(), layers: BlockCache::default() };
        for t in read_tasks(warm)? {
            solve_text(&t, Some(&s.solve))?;
            solve_text(&t, Some(&s.layers))?;
        }
        stores = Some(s);
    }
    let mut tr = Tracer { t0: Instant::now(), spans: Vec::new() };
    // the daemon's default response-cache size
    let mut cache = DecompCache::new(32 << 20);
    if let Some(path) = &o.replay {
        let mut records = Vec::new();
        for _ in 0..REPLAYS {
            records = replay(&mut tr, &solver, path)?;
        }
        for r in records {
            cache.admit(r.key, r.value);
        }
    }
    let _ = std::fs::remove_file(&o.log);
    let (mut log, _, _) =
        CacheLog::open(&o.log, |_| false).map_err(|e| format!("cannot open `{}`: {e}", o.log.display()))?;
    let deadline = Instant::now() + Duration::from_secs_f64(o.seconds);
    // the task list opens with each distinct request once: trace at least
    // those (up to 50), then go on until the deadline
    let mut distinct = std::collections::HashSet::new();
    let first = tasks.iter().take_while(|t| distinct.insert(t.key.as_str())).count().min(50);
    let mut req = 0;
    let mut first_bytes = 0;
    while req < first || Instant::now() < deadline {
        let t = &tasks[req % tasks.len()];
        req += 1;
        trace_request(&mut tr, req, t, &solver, &mut cache, &mut log, stores.as_ref())?;
        if req == first {
            first_bytes = file_len(&o.log)?;
        }
    }
    drop(log);
    if o.replay.is_none() {
        // replay the records of the first distinct requests only, so the
        // replayed log does not grow with the number of requests that fit
        std::fs::OpenOptions::new()
            .write(true)
            .open(&o.log)
            .and_then(|f| f.set_len(first_bytes))
            .map_err(|e| format!("cannot truncate `{}`: {e}", o.log.display()))?;
        replay(&mut tr, &solver, &o.log)?;
    }
    tr.write(&o.spans)?;
    println!("{{\"requests\": {req}, \"spans\": {}}}", tr.spans.len());
    Ok(())
}

/// Fixed CPU work in the mix the solver does: sorting, ordered-map
/// lookups, bitset rows and scattered reads of a table larger than a
/// core's private caches. It depends only on `std`, so no change to the
/// program under test moves its cost.
fn reference_work(table: &[u32]) -> u64 {
    let mut x = 0x9e37_79b9_7f4a_7c15_u64;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut v: Vec<u64> = (0..16_384).map(|_| next()).collect();
    v.sort_unstable();
    let map: std::collections::BTreeMap<u64, usize> = v.iter().step_by(4).map(|&k| (k >> 44, 1)).collect();
    let mut acc = (0..16_384).filter_map(|_| map.get(&(next() >> 44))).sum::<usize>() as u64;
    const ROWS: usize = 256;
    let mut rows: Vec<[u64; 4]> = (0..ROWS).map(|_| [0; 4].map(|_: u64| next() & next())).collect();
    for round in 0..12 {
        for i in 0..ROWS {
            let pivot = rows[(i * 7 + round) % ROWS];
            let row = &mut rows[i];
            for w in 0..4 {
                row[w] |= pivot[w] & (row[w].rotate_left(round as u32 + 1));
                acc = acc.wrapping_add(u64::from(row[w].count_ones()));
            }
        }
    }
    let mut at = 0usize;
    for _ in 0..8_192 {
        at = (table[at] as usize ^ (next() as usize & 0xff)) & (table.len() - 1);
        acc = acc.wrapping_add(at as u64);
    }
    acc ^ v[v.len() / 2]
}

fn calibrate() -> Result<(), String> {
    use std::io::{BufRead, Write};
    // 2 MiB, built once: the runs time reads of it, not its page faults
    let table: Vec<u32> = (0..1u32 << 19).map(|i| i.wrapping_mul(0x9e37_79b9) >> 13).collect();
    let mut out = std::io::stdout().lock();
    for line in std::io::stdin().lock().lines() {
        line.map_err(|e| e.to_string())?;
        let r = std::hint::black_box(reference_work(&table));
        writeln!(out, "{}", r & 1).and_then(|()| out.flush()).map_err(|e| e.to_string())?;
    }
    Ok(())
}

fn file_len(path: &Path) -> Result<u64, String> {
    std::fs::metadata(path).map(|m| m.len()).map_err(|e| format!("cannot stat `{}`: {e}", path.display()))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let out = match args.first().map(String::as_str) {
        Some("reference") if args.len() == 2 => reference(&args[1]),
        Some("trace") => trace(&args[1..]),
        Some("calibrate") if args.len() == 1 => calibrate(),
        _ => Err(
            "usage: perfprobe reference TASKS | perfprobe trace TASKS --seconds S --spans OUT --log PATH … \
             | perfprobe calibrate"
                .into(),
        ),
    };
    match out {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfprobe: {e}");
            ExitCode::FAILURE
        }
    }
}
