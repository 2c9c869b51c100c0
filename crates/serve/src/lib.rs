//! `ghd-serve`: a long-running solve daemon with a canonical-form
//! decomposition cache.
//!
//! The one-shot CLI pays instance parsing, search setup, *and the whole
//! search* on every invocation — even for an instance it solved a second
//! ago. This crate keeps a daemon resident: clients submit instances over
//! a Unix or TCP socket in newline-delimited JSON
//! ([`protocol`]), a fixed worker pool solves them, and self-certified
//! exact answers are admitted to an LRU [`DecompCache`] keyed by the
//! *canonical* form of the instance ([`ghd_core::canon`]) — a re-submitted
//! instance, even reformatted or re-commented, returns its verified
//! `(width, ordering, decomposition)` without expanding a single node.
//!
//! The daemon is deliberately decoupled from the solver: it dispatches
//! through the [`Solver`] trait, and the `ghd` CLI supplies the
//! implementation backed by its own solve functions. That keeps the
//! dependency arrow pointing one way (`cli` → `serve`) while guaranteeing
//! the byte-identity contract — daemon answers *are* one-shot CLI answers,
//! produced by the same code path.
//!
//! Operational properties (see [`server`] for the mechanics):
//! * **Backpressure**: the solve queue is bounded; a full queue answers
//!   `busy` (503) instead of buffering without limit.
//! * **Graceful drain**: `shutdown` refuses new solves, finishes and
//!   delivers in-flight ones, then exits with a summary.
//! * **Fault containment**: a panicking solve poisons one request
//!   (error 70), never the daemon; worker faults *inside* the parallel
//!   searches are already contained by `ghd_par` and surface as degraded
//!   single answers.
//! * **Telemetry**: the `stats` endpoint reports per-session aggregates
//!   (cache hits/misses, queue wait, solve wall clock, faults).
//!
//! [`DecompCache`]: ghd_core::canon::DecompCache

pub mod client;
pub mod protocol;
#[cfg(test)]
mod render_pins;
pub mod server;
pub mod signal;

pub use client::Client;
pub use ghd_core::canon::CacheKey;
pub use protocol::{Request, Response};
pub use server::{ServeStats, Server, ServerConfig};

/// The shared per-request cancellation flag the daemon hands a solve.
///
/// A plain `Arc<AtomicBool>` rather than a search-crate type, so the
/// [`Solver`] trait does not force a `ghd-search` dependency onto this
/// crate; the CLI's solver wraps it in a `CancelToken` on its side.
pub type CancelFlag = std::sync::Arc<std::sync::atomic::AtomicBool>;

/// A solved request, as the [`Solver`] reports it to the daemon.
#[derive(Clone, Debug)]
pub struct SolveOutcome {
    /// Complete response body — byte-identical to the one-shot CLI's
    /// stdout for the same instance text and flags.
    pub body: String,
    /// The certified width the body reports.
    pub width: usize,
    /// `true` iff the width is proven optimal.
    pub exact: bool,
    /// `true` iff the answer was independently re-verified.
    pub certified: bool,
    /// `true` iff the answer may enter the decomposition cache (the
    /// daemon additionally requires `exact && certified`).
    pub cacheable: bool,
    /// Node expansions spent.
    pub nodes_expanded: u64,
    /// Worker faults contained during the solve.
    pub faults: usize,
    /// `true` iff the solve was stopped by cooperative cancellation; the
    /// body then reports certified anytime bounds (never cacheable).
    pub cancelled: bool,
}

/// A failed solve: `sysexits`-style category code plus a one-liner.
#[derive(Clone, Debug)]
pub struct SolveError {
    /// Error category (64 usage, 65 data, 70 internal, …).
    pub code: i64,
    /// Human-readable diagnostic.
    pub message: String,
}

/// What the daemon needs from a solver backend.
///
/// Implementations must be deterministic: the same `(cmd, instance,
/// args)` must produce the same `body`, or caching (and the byte-identity
/// contract) is meaningless.
pub trait Solver: Send + Sync + 'static {
    /// The cache identity of this request, or `None` when the request
    /// must never be cached (unparseable instance, non-reproducible
    /// output such as `--stats` bodies with embedded wall-clock times).
    fn cache_key(&self, cmd: &str, instance: &str, args: &[String]) -> Option<CacheKey>;

    /// Solves the request. Called on a daemon worker thread; panics are
    /// contained per request. `cancel` is this request's cooperative
    /// cancellation flag — implementations should observe it (e.g. by
    /// threading it into their search budget) and report `cancelled`
    /// outcomes with certified anytime bounds.
    fn solve(
        &self,
        cmd: &str,
        instance: &str,
        args: &[String],
        cancel: &CancelFlag,
    ) -> Result<SolveOutcome, SolveError>;

    /// Whether a cache-log record replayed at boot is a valid entry for
    /// *this* solver: the stored canonical text must re-derive the stored
    /// hash and canonical form (the on-disk analogue of verify-on-probe).
    /// The checksum already proved the bytes intact; this proves they
    /// mean what they claim. Defaults to rejecting everything, so a
    /// backend that cannot re-verify never admits stale state.
    fn verify_replay(&self, _key: &CacheKey) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ghd_core::canon::CacheKey;
    use ghd_prng::hash::fx_hash_words;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use std::thread;
    use std::time::Duration;

    /// A deterministic scriptable solver: `solve:X` answers `solved:X`,
    /// `sleep:MS` stalls (for backpressure/drain tests), `wait-cancel`
    /// spins until its cancel flag flips (then answers with anytime
    /// bounds), `panic` panics, `fail` returns a usage error. Everything
    /// else is "exact + certified" so cache admission is exercised.
    struct MockSolver {
        solves: AtomicU64,
    }

    impl MockSolver {
        fn new() -> Arc<MockSolver> {
            Arc::new(MockSolver { solves: AtomicU64::new(0) })
        }
    }

    impl Solver for MockSolver {
        fn cache_key(&self, cmd: &str, instance: &str, _args: &[String]) -> Option<CacheKey> {
            if instance.starts_with("nocache:") {
                return None;
            }
            Some(CacheKey {
                hash: fx_hash_words(&[instance.len() as u64]),
                canon: instance.to_string(),
                signature: cmd.to_string(),
            })
        }

        fn solve(
            &self,
            _cmd: &str,
            instance: &str,
            _args: &[String],
            cancel: &CancelFlag,
        ) -> Result<SolveOutcome, SolveError> {
            self.solves.fetch_add(1, Ordering::SeqCst);
            if let Some(ms) = instance.strip_prefix("sleep:") {
                thread::sleep(Duration::from_millis(ms.parse().unwrap()));
            }
            if instance == "wait-cancel" {
                // a "hard search" that only the cancel verb can stop
                while !cancel.load(Ordering::Relaxed) {
                    thread::sleep(Duration::from_millis(5));
                }
                return Ok(SolveOutcome {
                    body: "2 <= width <= 5 (cancelled)\n".into(),
                    width: 5,
                    exact: false,
                    certified: true,
                    cacheable: false,
                    nodes_expanded: 3,
                    faults: 0,
                    cancelled: true,
                });
            }
            if instance == "panic" {
                panic!("scripted solver panic");
            }
            if instance == "fail" {
                return Err(SolveError { code: 64, message: "scripted failure".into() });
            }
            Ok(SolveOutcome {
                body: format!("solved:{instance}\n"),
                width: 2,
                exact: true,
                certified: true,
                cacheable: true,
                nodes_expanded: 10,
                faults: 0,
                cancelled: false,
            })
        }

        fn verify_replay(&self, key: &CacheKey) -> bool {
            // the same discipline the CLI solver applies: the stored
            // canonical text must re-derive the stored hash
            key.hash == fx_hash_words(&[key.canon.len() as u64])
                && !key.canon.starts_with("nocache:")
        }
    }

    /// Boots a daemon on a free TCP port, runs `f` against its address,
    /// then shuts it down and returns (summary, solver).
    fn with_server<R>(
        cfg: ServerConfig,
        f: impl FnOnce(&str) -> R,
    ) -> (R, String, Arc<MockSolver>) {
        let solver = MockSolver::new();
        let server = Server::bind("127.0.0.1:0", cfg, Arc::clone(&solver) as Arc<dyn Solver>)
            .expect("bind a free port");
        let addr = server.local_addr();
        let handle = thread::spawn(move || server.run());
        let out = f(&addr);
        let mut c = Client::connect(&addr).expect("connect for shutdown");
        let resp = c.request(&Request::control(None, "shutdown")).expect("shutdown");
        assert!(resp.ok);
        let summary = handle.join().expect("server thread");
        (out, summary, solver)
    }

    #[test]
    fn solve_roundtrip_and_cache_hit() {
        let (_, summary, solver) = with_server(ServerConfig::default(), |addr| {
            let mut c = Client::connect(addr).unwrap();
            let req = Request::solve(Some(1), "tw", "instance-a", &[]);
            let cold = c.request(&req).unwrap();
            assert!(cold.ok, "{cold:?}");
            assert_eq!(cold.body.as_deref(), Some("solved:instance-a\n"));
            assert_eq!(cold.cache_hit, Some(false));
            assert_eq!(cold.nodes_expanded, Some(10));
            assert_eq!(cold.id, Some(1));
            // warm probe: identical body, zero work, cache_hit flagged
            let warm = c.request(&req).unwrap();
            assert_eq!(warm.body, cold.body);
            assert_eq!(warm.cache_hit, Some(true));
            assert_eq!(warm.nodes_expanded, Some(0));
            assert_eq!(warm.exact, Some(true));
            // a different signature (cmd) misses
            let other = c.request(&Request::solve(None, "ghw", "instance-a", &[])).unwrap();
            assert_eq!(other.cache_hit, Some(false));
        });
        assert_eq!(solver.solves.load(Ordering::SeqCst), 2, "warm probe never solves");
        assert!(summary.contains("3 completed (1 cache hits"), "{summary}");
    }

    #[test]
    fn ping_stats_and_malformed_lines() {
        with_server(ServerConfig::default(), |addr| {
            let mut c = Client::connect(addr).unwrap();
            let pong = c.request(&Request::control(Some(9), "ping")).unwrap();
            assert_eq!((pong.ok, pong.body.as_deref(), pong.id), (true, Some("pong"), Some(9)));
            // garbage is answered (code 64), not a dropped connection
            let bad = c.roundtrip_line("this is not json").unwrap();
            let bad = Response::parse(&bad).unwrap();
            assert_eq!((bad.ok, bad.code), (false, Some(64)));
            let unknown = c.request(&Request::control(None, "frobnicate")).unwrap();
            assert_eq!(unknown.code, Some(64));
            // solve twice (one hit), then read the stats endpoint
            let req = Request::solve(None, "tw", "stats-probe", &[]);
            assert!(c.request(&req).unwrap().ok);
            assert!(c.request(&req).unwrap().ok);
            let stats = c.request(&Request::control(None, "stats")).unwrap();
            let body = stats.body.expect("stats body");
            let v = ghd_core::json::Json::parse(&body).expect("stats is JSON");
            use ghd_core::json::Json;
            assert_eq!(v.get("completed").and_then(Json::as_f64), Some(2.0));
            let cache = v.get("cache").expect("cache object");
            assert_eq!(cache.get("hits").and_then(Json::as_f64), Some(1.0));
            assert_eq!(cache.get("entries").and_then(Json::as_f64), Some(1.0));
            assert!(v.get("queue_wait_s").and_then(Json::as_f64).is_some());
        });
    }

    #[test]
    fn full_queue_answers_busy_instead_of_buffering() {
        let cfg = ServerConfig { workers: 1, queue: 1, ..ServerConfig::default() };
        let ((), summary, _) = with_server(cfg, |addr| {
            // occupy the single worker with a slow solve…
            let slow_addr = addr.to_string();
            let slow = thread::spawn(move || {
                let mut c = Client::connect(&slow_addr).unwrap();
                c.request(&Request::solve(None, "tw", "sleep:600", &[])).unwrap()
            });
            thread::sleep(Duration::from_millis(150));
            // …fill the queue depth of 1…
            let fill_addr = addr.to_string();
            let fill = thread::spawn(move || {
                let mut c = Client::connect(&fill_addr).unwrap();
                c.request(&Request::solve(None, "tw", "sleep:100", &[])).unwrap()
            });
            thread::sleep(Duration::from_millis(150));
            // …so the next submission bounces with `busy`, immediately
            let mut c = Client::connect(addr).unwrap();
            let busy = c.request(&Request::solve(Some(3), "tw", "bounced", &[])).unwrap();
            assert_eq!((busy.ok, busy.code), (false, Some(503)), "{busy:?}");
            assert_eq!(busy.error.as_deref(), Some("busy"));
            assert_eq!(busy.id, Some(3));
            // the in-flight requests still complete normally
            assert!(slow.join().unwrap().ok);
            assert!(fill.join().unwrap().ok);
        });
        assert!(summary.contains("1 busy rejections"), "{summary}");
    }

    #[test]
    fn drain_finishes_inflight_work_and_refuses_new_solves() {
        let cfg = ServerConfig { workers: 2, ..ServerConfig::default() };
        let solver = MockSolver::new();
        let server = Server::bind("127.0.0.1:0", cfg, Arc::clone(&solver) as _).unwrap();
        let addr = server.local_addr();
        let handle = thread::spawn(move || server.run());
        // a solve that is still running when shutdown arrives
        let inflight_addr = addr.clone();
        let inflight = thread::spawn(move || {
            let mut c = Client::connect(&inflight_addr).unwrap();
            c.request(&Request::solve(Some(1), "tw", "sleep:400", &[])).unwrap()
        });
        thread::sleep(Duration::from_millis(150));
        let mut c = Client::connect(&addr).unwrap();
        assert!(c.request(&Request::control(None, "shutdown")).unwrap().ok);
        // post-shutdown solves are refused with `draining`
        let refused = c.request(&Request::solve(None, "tw", "late", &[])).unwrap();
        assert_eq!((refused.ok, refused.code), (false, Some(503)));
        assert_eq!(refused.error.as_deref(), Some("draining"));
        drop(c);
        // the in-flight answer is still delivered in full
        let done = inflight.join().unwrap();
        assert!(done.ok, "{done:?}");
        assert_eq!(done.body.as_deref(), Some("solved:sleep:400\n"));
        let summary = handle.join().unwrap();
        assert!(summary.contains("drained clean"), "{summary}");
    }

    #[test]
    fn solver_panic_poisons_one_request_not_the_daemon() {
        with_server(ServerConfig::default(), |addr| {
            let mut c = Client::connect(addr).unwrap();
            let poisoned = c.request(&Request::solve(Some(5), "tw", "panic", &[])).unwrap();
            assert_eq!((poisoned.ok, poisoned.code), (false, Some(70)), "{poisoned:?}");
            assert!(poisoned.error.unwrap().contains("scripted solver panic"));
            // scripted errors keep their category code
            let failed = c.request(&Request::solve(None, "tw", "fail", &[])).unwrap();
            assert_eq!(failed.code, Some(64));
            // the daemon keeps serving on the same connection
            let alive = c.request(&Request::solve(None, "tw", "after-panic", &[])).unwrap();
            assert!(alive.ok, "{alive:?}");
        });
    }

    #[test]
    fn cancel_verb_stops_an_inflight_solve_and_daemon_stays_healthy() {
        let cfg = ServerConfig { workers: 1, ..ServerConfig::default() };
        with_server(cfg, |addr| {
            // a solve only cancellation can finish, on its own connection
            let solve_addr = addr.to_string();
            let inflight = thread::spawn(move || {
                let mut c = Client::connect(&solve_addr).unwrap();
                c.request(&Request::solve(Some(42), "tw", "wait-cancel", &[])).unwrap()
            });
            thread::sleep(Duration::from_millis(200));
            let mut c = Client::connect(addr).unwrap();
            // wrong target: diagnosed, nothing cancelled
            let miss = c.request(&Request::cancel(Some(1), 999)).unwrap();
            assert_eq!((miss.ok, miss.code), (false, Some(69)), "{miss:?}");
            // a cancel with no target is a usage error
            let mut bad = Request::control(Some(2), "cancel");
            bad.target = None;
            let bad = c.request(&bad).unwrap();
            assert_eq!(bad.code, Some(64));
            // the real cancel lands
            let hit = c.request(&Request::cancel(Some(3), 42)).unwrap();
            assert!(hit.ok, "{hit:?}");
            let done = inflight.join().unwrap();
            assert!(done.ok, "{done:?}");
            assert_eq!(done.cancelled, Some(true));
            assert_eq!(done.exact, Some(false));
            assert!(done.body.unwrap().contains("(cancelled)"));
            // the id is gone from the registry once answered…
            let gone = c.request(&Request::cancel(None, 42)).unwrap();
            assert_eq!(gone.code, Some(69));
            // …and the daemon keeps solving exactly
            let after = c.request(&Request::solve(None, "tw", "after-cancel", &[])).unwrap();
            assert_eq!((after.ok, after.exact), (true, Some(true)), "{after:?}");
        });
    }

    #[test]
    fn connection_cap_sheds_with_busy_line() {
        let cfg = ServerConfig { max_conns: 2, ..ServerConfig::default() };
        with_server(cfg, |addr| {
            let _a = Client::connect(addr).unwrap();
            let _b = Client::connect(addr).unwrap();
            thread::sleep(Duration::from_millis(100)); // both accepted
            let mut over = Client::connect(addr).unwrap();
            // the shed line arrives unprompted, before any request
            let line = over.read_line().unwrap();
            let resp = Response::parse(&line).unwrap();
            assert_eq!((resp.ok, resp.code), (false, Some(503)), "{resp:?}");
            assert!(resp.error.unwrap().starts_with("busy"));
            // an accepted connection still works while the cap holds
            let mut a = _a;
            let ok = a.request(&Request::solve(None, "tw", "capped", &[])).unwrap();
            assert!(ok.ok, "{ok:?}");
        });
    }

    #[test]
    fn idle_connections_are_closed_and_counted() {
        let cfg = ServerConfig {
            idle_timeout: Some(Duration::from_millis(250)),
            ..ServerConfig::default()
        };
        with_server(cfg, |addr| {
            let mut idle = Client::connect(addr).unwrap();
            assert!(idle.request(&Request::control(None, "ping")).unwrap().ok);
            thread::sleep(Duration::from_millis(700));
            // the daemon hung up; the next roundtrip fails on read or write
            let dead = idle.request(&Request::control(None, "ping"));
            assert!(dead.is_err(), "idle connection should be closed: {dead:?}");
            let mut fresh = Client::connect(addr).unwrap();
            let stats = fresh.request(&Request::control(None, "stats")).unwrap();
            let body = stats.body.unwrap();
            let v = ghd_core::json::Json::parse(&body).unwrap();
            use ghd_core::json::Json;
            assert!(
                v.get("idle_closed").and_then(Json::as_f64).unwrap_or(0.0) >= 1.0,
                "{body}"
            );
        });
    }

    #[test]
    fn cache_log_persists_admissions_across_a_daemon_restart() {
        let path = std::env::temp_dir()
            .join(format!("ghd-serve-persist-{}.log", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let cfg = ServerConfig { log_path: Some(path.clone()), ..ServerConfig::default() };

        // first life: two admissions (one instance is not cacheable)
        let (_, _, _) = with_server(cfg.clone(), |addr| {
            let mut c = Client::connect(addr).unwrap();
            assert!(c.request(&Request::solve(None, "tw", "persist-a", &[])).unwrap().ok);
            assert!(c.request(&Request::solve(None, "ghw", "persist-b", &[])).unwrap().ok);
            assert!(c.request(&Request::solve(None, "tw", "nocache:x", &[])).unwrap().ok);
        });

        // second life, same log: the warm entries replay as verified hits
        let (_, _, solver) = with_server(cfg, |addr| {
            let mut c = Client::connect(addr).unwrap();
            let stats = c.request(&Request::control(None, "stats")).unwrap();
            let body = stats.body.unwrap();
            use ghd_core::json::Json;
            let v = Json::parse(&body).unwrap();
            assert_eq!(v.get("replayed").and_then(Json::as_f64), Some(2.0), "{body}");
            assert_eq!(v.get("replay_verify_rejects").and_then(Json::as_f64), Some(0.0));
            let warm = c.request(&Request::solve(Some(7), "tw", "persist-a", &[])).unwrap();
            assert_eq!(warm.cache_hit, Some(true), "{warm:?}");
            assert_eq!(warm.nodes_expanded, Some(0));
            assert_eq!(warm.body.as_deref(), Some("solved:persist-a\n"));
            let warm2 = c.request(&Request::solve(None, "ghw", "persist-b", &[])).unwrap();
            assert_eq!(warm2.cache_hit, Some(true));
        });
        assert_eq!(solver.solves.load(Ordering::SeqCst), 0, "warm boot never re-solves");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn unix_socket_transport_works_and_cleans_up() {
        let path = std::env::temp_dir()
            .join(format!("ghd-serve-test-{}.sock", std::process::id()));
        let addr = format!("unix:{}", path.display());
        let solver = MockSolver::new();
        let server = Server::bind(&addr, ServerConfig::default(), solver as _).unwrap();
        assert_eq!(server.local_addr(), addr);
        let handle = thread::spawn(move || server.run());
        let mut c = Client::connect(&addr).unwrap();
        let resp = c.request(&Request::solve(None, "ghw", "via-unix", &[])).unwrap();
        assert_eq!(resp.body.as_deref(), Some("solved:via-unix\n"));
        assert!(c.request(&Request::control(None, "shutdown")).unwrap().ok);
        handle.join().unwrap();
        assert!(!path.exists(), "socket file removed on drop");
    }
}
