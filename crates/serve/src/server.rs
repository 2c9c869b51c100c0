//! The daemon: socket accept loop, bounded dispatch queue, worker pool,
//! decomposition cache, and graceful drain.
//!
//! ```text
//! client ──line──▶ connection thread ──try_send──▶ bounded queue
//!                        │   ▲                          │
//!                        │   └─── reply channel ◀── worker pool
//!                        ▼                              │
//!                   busy (503)                 cache probe / solve / admit
//! ```
//!
//! One thread per connection reads request lines and *blocks* on the reply
//! channel, so each connection sees responses in request order. The solve
//! queue between connections and workers is a bounded
//! [`std::sync::mpsc::sync_channel`]: when it is full, `try_send` fails
//! immediately and the client gets a `busy` (503) line instead of
//! unbounded buffering — backpressure is explicit and cheap.
//!
//! A `shutdown` request flips the drain flag: new solves are refused
//! (`draining`, 503), in-flight solves finish and are delivered, the
//! accept loop stops once every connection has wound down, and
//! [`Server::run`] returns a one-line summary. Worker panics are contained
//! per request with [`std::panic::catch_unwind`] — a poisoned request
//! yields an error response (code 70), never a dead daemon.

use crate::protocol::{Request, Response};
use crate::{signal, CancelFlag, SolveError, SolveOutcome, Solver};
use ghd_core::canon::log::CacheLog;
use ghd_core::canon::{CachedDecomp, DecompCache};
use ghd_core::json::{Layout, Writer};
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use std::{io, thread};

/// How long a connection read blocks before re-checking the drain flag,
/// and how long the accept loop naps when idle. Bounds drain latency.
const POLL: Duration = Duration::from_millis(100);

/// Sizing knobs for [`Server::bind`].
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Solver threads; `0` = one per core ([`ghd_par::num_threads`]).
    pub workers: usize,
    /// Bounded solve-queue depth; a full queue answers `busy` (503).
    pub queue: usize,
    /// Decomposition-cache byte cap.
    pub cache_bytes: usize,
    /// Append-only cache log: admitted entries are spilled here and
    /// replayed (with verification) at boot. `None` = memory only.
    pub log_path: Option<PathBuf>,
    /// Concurrent-connection cap; connections over it are shed with an
    /// immediate `busy` (503) line instead of an unbounded thread pile.
    pub max_conns: usize,
    /// Idle-connection timeout: a connection with no complete request for
    /// this long is closed. `None` = never.
    pub idle_timeout: Option<Duration>,
    /// Periodic one-line stats snapshot to the access log (stderr):
    /// requests, cache bytes/hits, queue depth, in-flight solves, replays.
    /// `None` = off.
    pub stats_interval: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 0,
            queue: 64,
            cache_bytes: 32 << 20,
            log_path: None,
            max_conns: 256,
            idle_timeout: Some(Duration::from_secs(300)),
            stats_interval: None,
        }
    }
}

/// Aggregate request telemetry, served by the `stats` endpoint.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServeStats {
    /// Request lines accepted (solves and control commands).
    pub requests: u64,
    /// Solve requests answered with a body.
    pub completed: u64,
    /// Solve requests answered from the decomposition cache.
    pub cache_hits: u64,
    /// Solve requests rejected because the queue was full.
    pub busy_rejections: u64,
    /// Solve requests that returned an error (bad flags, bad instance,
    /// contained worker panic).
    pub errors: u64,
    /// Worker faults contained inside completed solves.
    pub faults: u64,
    /// Node expansions spent across all completed solves.
    pub nodes_expanded: u64,
    /// Total seconds requests sat in the queue before a worker took them.
    pub queue_wait_s: f64,
    /// Total solve wall-clock seconds.
    pub wall_s: f64,
    /// Solves stopped by a `cancel` request (answered with certified
    /// anytime bounds; counted under `completed` as well).
    pub cancelled: u64,
    /// Connections shed at accept because the connection cap was reached.
    pub conn_rejections: u64,
    /// Connections closed by the per-connection idle timeout.
    pub idle_closed: u64,
    /// Cache-log records replayed (verified) into the cache at boot.
    pub replayed: u64,
    /// Cache-log records that survived their checksum but failed solver
    /// verification at boot (skipped, never admitted).
    pub replay_verify_rejects: u64,
    /// Seconds spent replaying the cache log at boot.
    pub boot_replay_s: f64,
}

/// `unix:PATH` or a TCP host:port, with the bound form reported back.
enum Listener {
    Tcp(TcpListener),
    Unix(UnixListener, PathBuf),
}

impl Listener {
    fn bind(addr: &str) -> io::Result<Listener> {
        if let Some(path) = addr.strip_prefix("unix:") {
            // a stale socket file from a dead daemon would make bind fail
            let _ = std::fs::remove_file(path);
            Ok(Listener::Unix(UnixListener::bind(path)?, PathBuf::from(path)))
        } else {
            Ok(Listener::Tcp(TcpListener::bind(addr)?))
        }
    }

    fn set_nonblocking(&self, on: bool) -> io::Result<()> {
        match self {
            Listener::Tcp(l) => l.set_nonblocking(on),
            Listener::Unix(l, _) => l.set_nonblocking(on),
        }
    }

    fn accept(&self) -> io::Result<Stream> {
        match self {
            Listener::Tcp(l) => l.accept().map(|(s, _)| {
                // request/response lines are tiny; Nagle+delayed-ACK adds
                // tens of milliseconds per roundtrip for nothing
                let _ = s.set_nodelay(true);
                Stream::Tcp(s)
            }),
            Listener::Unix(l, _) => l.accept().map(|(s, _)| Stream::Unix(s)),
        }
    }

    fn local_addr(&self) -> String {
        match self {
            Listener::Tcp(l) => l
                .local_addr()
                .map(|a| a.to_string())
                .unwrap_or_else(|_| "<unbound>".into()),
            Listener::Unix(_, p) => format!("unix:{}", p.display()),
        }
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        if let Listener::Unix(_, path) = self {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// A connected peer, TCP or Unix, unified behind `Read`/`Write`.
pub(crate) enum Stream {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Stream {
    pub(crate) fn connect(addr: &str) -> io::Result<Stream> {
        if let Some(path) = addr.strip_prefix("unix:") {
            UnixStream::connect(path).map(Stream::Unix)
        } else {
            let s = TcpStream::connect(addr)?;
            let _ = s.set_nodelay(true);
            Ok(Stream::Tcp(s))
        }
    }

    pub(crate) fn try_clone(&self) -> io::Result<Stream> {
        match self {
            Stream::Tcp(s) => s.try_clone().map(Stream::Tcp),
            Stream::Unix(s) => s.try_clone().map(Stream::Unix),
        }
    }

    fn set_read_timeout(&self, d: Option<Duration>) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_read_timeout(d),
            Stream::Unix(s) => s.set_read_timeout(d),
        }
    }
}

impl io::Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl io::Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            Stream::Unix(s) => s.write(buf),
        }
    }
    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            Stream::Unix(s) => s.flush(),
        }
    }
}

/// State shared by the accept loop, connection threads, and workers.
struct Shared {
    solver: Arc<dyn Solver>,
    cache: Mutex<DecompCache>,
    /// The append-only persistence log, when configured.
    log: Mutex<Option<CacheLog>>,
    stats: Mutex<ServeStats>,
    draining: AtomicBool,
    /// Solve jobs accepted but not yet answered; drain waits for zero.
    outstanding: AtomicUsize,
    /// In-flight solves by client-chosen correlation id, for the `cancel`
    /// verb. Ids are client-owned, so duplicates are possible: a cancel
    /// flips *every* matching flag; entries are removed by flag identity.
    inflight: Mutex<Vec<(u64, CancelFlag)>>,
    /// Open connections, for the connection cap.
    conns: AtomicUsize,
    workers: usize,
}

impl Shared {
    /// Spills an admitted entry to the cache log, if one is configured.
    fn log_append(&self, key: &ghd_core::canon::CacheKey, value: &CachedDecomp) {
        let mut log = self.log.lock().unwrap_or_else(|p| p.into_inner());
        if let Some(log) = log.as_mut() {
            if let Err(e) = log.append(key, value) {
                eprintln!("ghd-serve: cache-log append failed: {e}");
            }
        }
    }

    /// Flips the cancel flag of every in-flight solve with correlation id
    /// `target`; returns how many were flipped.
    fn cancel_inflight(&self, target: u64) -> usize {
        let inflight = self.inflight.lock().unwrap_or_else(|p| p.into_inner());
        let mut n = 0;
        for (id, flag) in inflight.iter() {
            if *id == target {
                flag.store(true, Ordering::Relaxed);
                n += 1;
            }
        }
        n
    }

    /// Cancels *every* in-flight solve (second-signal escalation).
    fn cancel_all(&self) -> usize {
        let inflight = self.inflight.lock().unwrap_or_else(|p| p.into_inner());
        for (_, flag) in inflight.iter() {
            flag.store(true, Ordering::Relaxed);
        }
        inflight.len()
    }

    /// One structured stats line on stderr, in the access-log style:
    /// emitted every `--stats-interval` seconds by the accept loop.
    fn snapshot_line(&self) {
        let stats = *self.stats.lock().unwrap_or_else(|p| p.into_inner());
        let (cache_stats, cache_bytes, cache_entries) = {
            let cache = self.cache.lock().unwrap_or_else(|p| p.into_inner());
            (cache.stats(), cache.bytes(), cache.len())
        };
        let queued = self.outstanding.load(Ordering::Acquire);
        let inflight = self.inflight.lock().unwrap_or_else(|p| p.into_inner()).len();
        eprintln!(
            "ghd-serve: snapshot requests={} completed={} errors={} busy={} \
             cache_hits={} cache_entries={cache_entries} cache_bytes={cache_bytes} \
             queue_depth={queued} inflight={inflight} replayed={} conns={}",
            stats.requests,
            stats.completed,
            stats.errors,
            stats.busy_rejections,
            cache_stats.hits,
            stats.replayed,
            self.conns.load(Ordering::Acquire),
        );
    }
}

/// One queued solve: the request, where to send the answer, this solve's
/// cancellation flag, and when it entered the queue (for the
/// `queue_wait_s` telemetry).
struct Job {
    req: Request,
    reply: std::sync::mpsc::Sender<Response>,
    cancel: CancelFlag,
    enqueued: Instant,
}

/// A bound daemon, ready to [`run`](Server::run).
pub struct Server {
    listener: Listener,
    cfg: ServerConfig,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds `addr` (`unix:PATH`, or a TCP address like `127.0.0.1:7171`;
    /// TCP port `0` picks a free port — read it back with
    /// [`local_addr`](Server::local_addr)).
    pub fn bind(addr: &str, cfg: ServerConfig, solver: Arc<dyn Solver>) -> io::Result<Server> {
        let listener = Listener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let workers = if cfg.workers == 0 { ghd_par::num_threads() } else { cfg.workers };
        let mut cache = DecompCache::new(cfg.cache_bytes);
        let mut stats = ServeStats::default();
        let log = match &cfg.log_path {
            None => None,
            Some(path) => {
                let t0 = Instant::now();
                let (log, records, report) =
                    CacheLog::open(path, |r| solver.verify_replay(&r.key))?;
                for r in records {
                    cache.admit(r.key, r.value);
                }
                stats.replayed = report.replayed as u64;
                stats.replay_verify_rejects = report.verify_rejects as u64;
                stats.boot_replay_s = t0.elapsed().as_secs_f64();
                eprintln!(
                    "ghd-serve: cache-log replayed {} entries ({} rejected by verification) \
                     from {} in {:.3}s",
                    report.replayed,
                    report.verify_rejects,
                    path.display(),
                    stats.boot_replay_s,
                );
                if report.truncated() {
                    eprintln!(
                        "ghd-serve: cache-log corrupt tail dropped ({} bytes truncated at \
                         offset {})",
                        report.corrupt_tail_bytes, report.valid_prefix_bytes,
                    );
                }
                Some(log)
            }
        };
        let shared = Arc::new(Shared {
            solver,
            cache: Mutex::new(cache),
            log: Mutex::new(log),
            stats: Mutex::new(stats),
            draining: AtomicBool::new(false),
            outstanding: AtomicUsize::new(0),
            inflight: Mutex::new(Vec::new()),
            conns: AtomicUsize::new(0),
            workers,
        });
        Ok(Server { listener, cfg, shared })
    }

    /// The bound address, in the same syntax [`bind`](Server::bind) takes.
    pub fn local_addr(&self) -> String {
        self.listener.local_addr()
    }

    /// Serves until a `shutdown` request drains the daemon; returns a
    /// one-line summary of the session.
    pub fn run(self) -> String {
        let (tx, rx) = sync_channel::<Job>(self.cfg.queue.max(1));
        let rx = Arc::new(Mutex::new(rx));
        let workers: Vec<_> = (0..self.shared.workers)
            .map(|_| {
                let rx = Arc::clone(&rx);
                let shared = Arc::clone(&self.shared);
                thread::spawn(move || worker_loop(&rx, &shared))
            })
            .collect();

        let mut conns: Vec<thread::JoinHandle<()>> = Vec::new();
        // signals observed before boot (e.g. a stale count from a test
        // process) don't count against this run
        let signal_floor = signal::signal_count();
        let mut signals_handled = 0;
        let mut next_snapshot = self.cfg.stats_interval.map(|iv| Instant::now() + iv);
        loop {
            if let (Some(at), Some(iv)) = (next_snapshot, self.cfg.stats_interval) {
                if Instant::now() >= at {
                    self.shared.snapshot_line();
                    next_snapshot = Some(Instant::now() + iv);
                }
            }
            // first SIGTERM/SIGINT = graceful drain (like `shutdown`);
            // second = cancel all in-flight solves so the drain converges
            let observed = signal::signal_count().saturating_sub(signal_floor);
            if observed > signals_handled {
                signals_handled = observed;
                if signals_handled == 1 {
                    eprintln!("ghd-serve: signal received — draining");
                    self.shared.draining.store(true, Ordering::Release);
                } else {
                    let n = self.shared.cancel_all();
                    eprintln!("ghd-serve: second signal — cancelling {n} in-flight solves");
                }
            }
            match self.listener.accept() {
                Ok(stream) => {
                    if self.shared.draining.load(Ordering::Acquire) {
                        continue; // connection dropped; the daemon is going away
                    }
                    // connection cap: shed with an immediate busy line
                    // rather than piling up threads without bound
                    if self.shared.conns.load(Ordering::Acquire) >= self.cfg.max_conns {
                        self.shared.stats.lock().unwrap_or_else(|p| p.into_inner()).conn_rejections +=
                            1;
                        let mut stream = stream;
                        let shed =
                            Response::fail(None, 503, "busy: connection limit reached");
                        let _ = stream
                            .write_all(shed.render().as_bytes())
                            .and_then(|()| stream.write_all(b"\n"));
                        continue;
                    }
                    self.shared.conns.fetch_add(1, Ordering::AcqRel);
                    let shared = Arc::clone(&self.shared);
                    let tx = tx.clone();
                    let idle = self.cfg.idle_timeout;
                    conns.push(thread::spawn(move || {
                        handle_conn(stream, &shared, &tx, idle);
                        shared.conns.fetch_sub(1, Ordering::AcqRel);
                    }));
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    conns.retain(|h| !h.is_finished());
                    if self.shared.draining.load(Ordering::Acquire) && conns.is_empty() {
                        break;
                    }
                    thread::sleep(POLL / 5);
                }
                Err(_) => {
                    if self.shared.draining.load(Ordering::Acquire) {
                        break;
                    }
                    thread::sleep(POLL / 5);
                }
            }
        }
        for h in conns {
            let _ = h.join();
        }
        drop(tx); // workers drain the queue, then see the hangup and exit
        for w in workers {
            let _ = w.join();
        }
        debug_assert_eq!(self.shared.outstanding.load(Ordering::Acquire), 0);
        // every admitted entry reaches the device before the summary
        // claims a clean drain
        {
            let mut log = self.shared.log.lock().unwrap_or_else(|p| p.into_inner());
            if let Some(log) = log.as_mut() {
                if let Err(e) = log.sync() {
                    eprintln!("ghd-serve: cache-log fsync failed: {e}");
                } else {
                    eprintln!(
                        "ghd-serve: cache-log synced ({} entries appended this session)",
                        log.appends()
                    );
                }
            }
        }
        let stats = *self.shared.stats.lock().unwrap_or_else(|p| p.into_inner());
        let cache = self.shared.cache.lock().unwrap_or_else(|p| p.into_inner());
        format!(
            "ghd-serve: drained clean — {} completed ({} cache hits, {} cancelled), {} errors, \
             {} busy rejections, {} connections shed, cache {} entries / {} bytes\n",
            stats.completed,
            stats.cache_hits,
            stats.cancelled,
            stats.errors,
            stats.busy_rejections,
            stats.conn_rejections,
            cache.len(),
            cache.bytes(),
        )
    }
}

/// Reads request lines off one connection until EOF, drain, or idle
/// timeout, answering each in order. Read timeouts bound how long a drain
/// waits on an idle connection; `idle` bounds how long a silent peer may
/// hold a connection slot.
fn handle_conn(
    stream: Stream,
    shared: &Arc<Shared>,
    tx: &SyncSender<Job>,
    idle: Option<Duration>,
) {
    let _ = stream.set_read_timeout(Some(POLL));
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    // `read_line` appends, so a line split across read timeouts
    // accumulates here until its newline arrives.
    let mut line = String::new();
    // idle = time since the last complete request (dispatch runs in this
    // thread, so a long solve never counts as idleness)
    let mut last_request = Instant::now();
    loop {
        match reader.read_line(&mut line) {
            Ok(0) => break, // EOF; a trailing unterminated line is not a request
            Ok(_) => {
                if !line.ends_with('\n') {
                    continue;
                }
                let text = std::mem::take(&mut line);
                if text.trim().is_empty() {
                    continue;
                }
                let resp = dispatch(text.trim(), shared, tx);
                last_request = Instant::now();
                if writer
                    .write_all(resp.render().as_bytes())
                    .and_then(|()| writer.write_all(b"\n"))
                    .and_then(|()| writer.flush())
                    .is_err()
                {
                    break; // peer went away; nothing left to deliver
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                if shared.draining.load(Ordering::Acquire) {
                    break;
                }
                if let Some(limit) = idle {
                    if last_request.elapsed() >= limit {
                        shared.stats.lock().unwrap_or_else(|p| p.into_inner()).idle_closed += 1;
                        break;
                    }
                }
            }
            Err(_) => break,
        }
    }
}

/// Routes one request line: control commands inline, solves through the
/// bounded queue with a blocking wait for the worker's reply. Every
/// request leaves one structured access-log line on stderr.
fn dispatch(text: &str, shared: &Arc<Shared>, tx: &SyncSender<Job>) -> Response {
    let req = match Request::parse(text) {
        Ok(r) => r,
        Err(e) => {
            let resp = Response::fail(None, 64, format!("bad request: {e}"));
            access_log(None, "<unparseable>", &resp);
            return resp;
        }
    };
    shared.stats.lock().unwrap_or_else(|p| p.into_inner()).requests += 1;
    // a queued solve takes the request (and its instance text) with it;
    // the access log and the in-flight registry need only these two
    let (id, cmd) = (req.id, req.cmd.clone());
    let resp = match cmd.as_str() {
        "ping" => Response::ok_body(id, "pong"),
        "shutdown" => {
            shared.draining.store(true, Ordering::Release);
            Response::ok_body(id, "draining")
        }
        "cancel" => match req.target {
            None => Response::fail(id, 64, "cancel requires a `target` request id"),
            Some(target) => {
                let flipped = shared.cancel_inflight(target);
                if flipped == 0 {
                    Response::fail(id, 69, format!("no in-flight request with id {target}"))
                } else {
                    Response::ok_body(id, format!("cancelling {flipped} in-flight solve(s)"))
                }
            }
        },
        "stats" => {
            let stats = *shared.stats.lock().unwrap_or_else(|p| p.into_inner());
            let (cache_stats, cache_bytes) = {
                let cache = shared.cache.lock().unwrap_or_else(|p| p.into_inner());
                (cache.stats(), cache.bytes())
            };
            Response::ok_body(id, render_stats(&stats, &cache_stats, cache_bytes, shared.workers))
        }
        "tw" | "ghw" => {
            if shared.draining.load(Ordering::Acquire) {
                let resp = Response::fail(id, 503, "draining");
                access_log(id, &cmd, &resp);
                return resp;
            }
            let (reply_tx, reply_rx) = std::sync::mpsc::channel();
            let cancel: CancelFlag = Arc::new(AtomicBool::new(false));
            // register for the `cancel` verb before the job can run; ids
            // are client-chosen, so only registered while in flight
            if let Some(rid) = id {
                shared
                    .inflight
                    .lock()
                    .unwrap_or_else(|p| p.into_inner())
                    .push((rid, Arc::clone(&cancel)));
            }
            shared.outstanding.fetch_add(1, Ordering::AcqRel);
            let job = Job { req, reply: reply_tx, cancel: Arc::clone(&cancel), enqueued: Instant::now() };
            let resp = match tx.try_send(job) {
                Ok(()) => reply_rx
                    .recv()
                    .unwrap_or_else(|_| Response::fail(id, 70, "worker dropped the request")),
                Err(TrySendError::Full(_)) => {
                    shared.stats.lock().unwrap_or_else(|p| p.into_inner()).busy_rejections += 1;
                    Response::fail(id, 503, "busy")
                }
                Err(TrySendError::Disconnected(_)) => Response::fail(id, 503, "draining"),
            };
            shared.outstanding.fetch_sub(1, Ordering::AcqRel);
            if let Some(rid) = id {
                shared
                    .inflight
                    .lock()
                    .unwrap_or_else(|p| p.into_inner())
                    .retain(|(i, f)| *i != rid || !Arc::ptr_eq(f, &cancel));
            }
            resp
        }
        other => Response::fail(id, 64, format!("unknown command `{other}`")),
    };
    access_log(id, &cmd, &resp);
    resp
}

/// One structured line per request on stderr: correlation id, verb, cache
/// disposition, queue/solve timings, and the outcome class.
fn access_log(id: Option<u64>, cmd: &str, resp: &Response) {
    let id = id.map_or_else(|| "-".into(), |i| i.to_string());
    let cache = match resp.cache_hit {
        Some(true) => "hit",
        Some(false) => "miss",
        None => "-",
    };
    let fmt_s = |v: Option<f64>| v.map_or_else(|| "-".into(), |s| format!("{s:.6}"));
    let outcome = if resp.cancelled == Some(true) {
        "cancelled".to_string()
    } else if resp.ok {
        "ok".to_string()
    } else {
        match (resp.code, resp.error.as_deref()) {
            (Some(503), Some(e)) if e.starts_with("busy") => "busy".to_string(),
            (Some(503), _) => "draining".to_string(),
            (Some(c), _) => format!("error:{c}"),
            (None, _) => "error".to_string(),
        }
    };
    eprintln!(
        "ghd-serve: access id={id} verb={cmd} cache={cache} queue_wait_s={} wall_s={} outcome={outcome}",
        fmt_s(resp.queue_wait_s),
        fmt_s(resp.wall_s),
    );
}

/// One worker: take a job, answer from cache or solve, admit the result.
fn worker_loop(rx: &Mutex<Receiver<Job>>, shared: &Arc<Shared>) {
    loop {
        // hold the lock only for the blocking receive; a `recv` error
        // means the accept loop hung up the channel: drain is complete
        let job = match rx.lock().unwrap_or_else(|p| p.into_inner()).recv() {
            Ok(job) => job,
            Err(_) => return,
        };
        let resp = answer(&job, shared);
        let _ = job.reply.send(resp);
    }
}

fn answer(job: &Job, shared: &Arc<Shared>) -> Response {
    let wait = job.enqueued.elapsed().as_secs_f64();
    let req = &job.req;
    let key = shared.solver.cache_key(&req.cmd, &req.instance, &req.args);
    if let Some(k) = &key {
        let hit = shared.cache.lock().unwrap_or_else(|p| p.into_inner()).probe(k);
        if let Some(cached) = hit {
            let mut stats = shared.stats.lock().unwrap_or_else(|p| p.into_inner());
            stats.completed += 1;
            stats.cache_hits += 1;
            stats.queue_wait_s += wait;
            return Response {
                id: req.id,
                ok: true,
                body: Some(cached.body),
                cache_hit: Some(true),
                // admission policy: only certified exact results enter
                exact: Some(true),
                certified: Some(true),
                nodes_expanded: Some(0),
                faults: Some(0),
                queue_wait_s: Some(wait),
                wall_s: Some(0.0),
                ..Response::default()
            };
        }
    }
    let start = Instant::now();
    let solver = Arc::clone(&shared.solver);
    let solved: Result<SolveOutcome, SolveError> = match catch_unwind(AssertUnwindSafe(|| {
        solver.solve(&req.cmd, &req.instance, &req.args, &job.cancel)
    })) {
            Ok(r) => r,
            Err(panic) => {
                let what = panic
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".into());
                Err(SolveError { code: 70, message: format!("solver panicked: {what}") })
            }
        };
    let wall = start.elapsed().as_secs_f64();
    match solved {
        Ok(outcome) => {
            if let (Some(k), true) = (key, outcome.cacheable && outcome.certified && outcome.exact) {
                let value = CachedDecomp { body: outcome.body.clone(), width: outcome.width };
                // spill before admit: the in-memory cache may evict, the
                // log keeps the entry for the next boot regardless
                shared.log_append(&k, &value);
                shared.cache.lock().unwrap_or_else(|p| p.into_inner()).admit(k, value);
            }
            let mut stats = shared.stats.lock().unwrap_or_else(|p| p.into_inner());
            stats.completed += 1;
            stats.faults += outcome.faults as u64;
            stats.nodes_expanded += outcome.nodes_expanded;
            stats.queue_wait_s += wait;
            stats.wall_s += wall;
            if outcome.cancelled {
                stats.cancelled += 1;
            }
            Response {
                id: req.id,
                ok: true,
                body: Some(outcome.body),
                cache_hit: Some(false),
                exact: Some(outcome.exact),
                certified: Some(outcome.certified),
                cancelled: outcome.cancelled.then_some(true),
                nodes_expanded: Some(outcome.nodes_expanded),
                faults: Some(outcome.faults as u64),
                queue_wait_s: Some(wait),
                wall_s: Some(wall),
                ..Response::default()
            }
        }
        Err(e) => {
            let mut stats = shared.stats.lock().unwrap_or_else(|p| p.into_inner());
            stats.errors += 1;
            stats.queue_wait_s += wait;
            stats.wall_s += wall;
            Response::fail(req.id, e.code, e.message)
        }
    }
}

/// Renders the `stats` endpoint body: one JSON document with the request
/// aggregates and the cache counters.
pub(crate) fn render_stats(
    s: &ServeStats,
    cache: &ghd_core::setcover::CacheStats,
    cache_bytes: usize,
    workers: usize,
) -> String {
    let mut out = String::new();
    Writer::new(&mut out).object(Layout::Inline, |o| {
        o.field("workers").int(workers);
        o.field("requests").int(s.requests);
        o.field("completed").int(s.completed);
        o.field("errors").int(s.errors);
        o.field("busy_rejections").int(s.busy_rejections);
        o.field("faults").int(s.faults);
        o.field("nodes_expanded").int(s.nodes_expanded);
        o.field("queue_wait_s").f64(s.queue_wait_s, 6);
        o.field("wall_s").f64(s.wall_s, 6);
        o.field("cancelled").int(s.cancelled);
        o.field("conn_rejections").int(s.conn_rejections);
        o.field("idle_closed").int(s.idle_closed);
        o.field("replayed").int(s.replayed);
        o.field("replay_verify_rejects").int(s.replay_verify_rejects);
        o.field("boot_replay_s").f64(s.boot_replay_s, 6);
        o.field("cache").object(Layout::Inline, |o| {
            o.field("hits").int(cache.hits);
            o.field("misses").int(cache.misses);
            o.field("evictions").int(cache.evictions);
            o.field("entries").int(cache.entries);
            o.field("bytes").int(cache_bytes);
        });
    });
    out
}
