//! Throughput benchmark for `ghd-serve`: drives an in-process daemon
//! (real sockets, real worker pool, the CLI's own solver) through a mixed
//! tw/ghw workload twice — a **cold** pass that solves everything and a
//! **warm** pass that must be answered entirely from the canonical-form
//! decomposition cache — and emits a machine-readable `BENCH_serve.json`
//! with a top-level `serve` section.
//!
//! Like the other workspace benches it is self-asserting: every daemon
//! answer is compared byte-for-byte against the one-shot solve path, the
//! warm pass must be 100% cache hits with zero node expansions, and the
//! drain must come back clean. A violated contract aborts the bench.
//!
//! A fourth **replay** pass measures the crash-safe cache log: the daemon
//! is drained (fsyncing its log), a *second* daemon boots on the same log,
//! and the whole workload must again be 100% cache hits — entries served
//! from boot replay, not re-solved. The emitted JSON carries the replay
//! telemetry (`replayed`, `replay_verify_rejects`, `boot_replay_s`).
//!
//! ```text
//! cargo run --release -p ghd-bench --bin bench_serve -- \
//!     --clients 3 --out BENCH_serve.json
//! ```

use ghd_bench::table::{Args, Table};
use ghd_cli::CliSolver;
use ghd_core::json::{Layout, Writer};
use ghd_serve::{Client, Request, Server, ServerConfig, Solver};
use std::sync::Arc;
use std::thread;
use std::time::Instant;

struct WorkItem {
    name: &'static str,
    cmd: &'static str,
    instance: String,
    args: Vec<String>,
    expect: String,
}

/// Small instances the exact searches finish fast, so the measured gap is
/// dispatch + cache behaviour, not search time variance.
fn workload() -> Vec<WorkItem> {
    let gen = |args: &[&str]| {
        ghd_cli::run(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
            .expect("generate instance")
    };
    let bb = vec!["--method".to_string(), "bb".to_string()];
    let specs: Vec<(&'static str, &'static str, String)> = vec![
        ("grid_4", "tw", gen(&["gen", "grid", "4"])),
        ("myciel_3", "tw", gen(&["gen", "myciel", "3"])),
        ("clique_6", "ghw", gen(&["gen", "clique", "6"])),
        ("grid2d-h_5", "ghw", gen(&["gen", "grid2d-h", "5"])),
        ("bridge_5", "ghw", gen(&["gen", "bridge", "5"])),
    ];
    specs
        .into_iter()
        .map(|(name, cmd, instance)| {
            let cancel = ghd_search::CancelToken::default();
            let report = match cmd {
                "tw" => ghd_cli::solve_tw_text_with_store(&instance, &bb, cancel, None),
                _ => ghd_cli::solve_ghw_text_with_store(&instance, &bb, cancel, None),
            }
            .expect("one-shot reference solve");
            WorkItem { name, cmd, instance, args: bb.clone(), expect: report.body }
        })
        .collect()
}

/// Runs every work item once per client, concurrently; returns the pass
/// wall clock and the per-request (cache_hit, queue_wait_s) telemetry.
fn pass(addr: &str, clients: usize, items: &[WorkItem]) -> (f64, Vec<(bool, f64)>) {
    let t0 = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|_| {
            let addr = addr.to_string();
            let reqs: Vec<(String, String, Vec<String>, String)> = items
                .iter()
                .map(|w| (w.cmd.to_string(), w.instance.clone(), w.args.clone(), w.expect.clone()))
                .collect();
            thread::spawn(move || {
                let mut client = Client::connect(&addr).expect("connect");
                let mut telemetry = Vec::new();
                for (cmd, instance, args, expect) in &reqs {
                    let resp = client
                        .request(&Request::solve(None, cmd, instance, args))
                        .expect("roundtrip");
                    assert!(resp.ok, "{resp:?}");
                    assert_eq!(
                        resp.body.as_deref(),
                        Some(expect.as_str()),
                        "daemon answer diverged from the one-shot solve"
                    );
                    if resp.cache_hit == Some(true) {
                        assert_eq!(resp.nodes_expanded, Some(0), "hits must cost nothing");
                    }
                    telemetry
                        .push((resp.cache_hit == Some(true), resp.queue_wait_s.unwrap_or(0.0)));
                }
                telemetry
            })
        })
        .collect();
    let mut all = Vec::new();
    for h in handles {
        all.extend(h.join().expect("client thread"));
    }
    (t0.elapsed().as_secs_f64(), all)
}

fn main() {
    let args = Args::parse();
    let clients: usize = args.get::<usize>("clients").unwrap_or(3).max(1);
    let out: String = args.get("out").unwrap_or_else(|| "BENCH_serve.json".to_string());

    let items = workload();
    let log_path = std::env::temp_dir().join(format!("ghd-bench-serve-{}.cachelog", std::process::id()));
    let _ = std::fs::remove_file(&log_path);
    let cfg = || ServerConfig {
        workers: 2,
        log_path: Some(log_path.clone()),
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", cfg(), Arc::new(CliSolver::default()) as Arc<dyn Solver>)
        .expect("bind a free port");
    let addr = server.local_addr();
    let daemon = thread::spawn(move || server.run());

    println!(
        "bench_serve — {} instances: cold (sequential misses), warm (sequential hits), \
         concurrent warm ({} clients), replay (restart on the cache log)\n",
        items.len(),
        clients
    );
    // cold: one client, first sight of every instance — misses only
    let (cold_wall, cold) = pass(&addr, 1, &items);
    // warm: the same workload again — the cache's 100%-hit contract
    let (warm_wall, warm) = pass(&addr, 1, &items);
    // concurrent warm: aggregate hit throughput under client parallelism
    let (cwarm_wall, cwarm) = pass(&addr, clients, &items);

    let hits = |t: &[(bool, f64)]| t.iter().filter(|(hit, _)| *hit).count();
    let cold_hits = hits(&cold);
    let warm_hits = hits(&warm);
    assert_eq!(cold_hits, 0, "cold pass must be all misses");
    assert_eq!(warm_hits, warm.len(), "warm pass must be 100% cache hits");
    assert_eq!(hits(&cwarm), cwarm.len(), "concurrent warm pass must be 100% cache hits");
    let mean_wait = |t: &[(bool, f64)]| {
        t.iter().map(|(_, w)| w).sum::<f64>() / t.len().max(1) as f64
    };

    let mut shutdown = Client::connect(&addr).expect("connect for shutdown");
    assert!(shutdown.request(&Request::control(None, "shutdown")).expect("shutdown").ok);
    let summary = daemon.join().expect("daemon thread");
    assert!(summary.contains("drained clean"), "{summary}");

    // replay: a second daemon boots on the fsynced log; the workload must
    // again be all hits — served from verified boot replay, not re-solved
    let server2 = Server::bind("127.0.0.1:0", cfg(), Arc::new(CliSolver::default()) as Arc<dyn Solver>)
        .expect("bind replay port");
    let addr2 = server2.local_addr();
    let daemon2 = thread::spawn(move || server2.run());
    let (replay_wall, replay) = pass(&addr2, 1, &items);
    assert_eq!(hits(&replay), replay.len(), "replay pass must be 100% cache hits");
    let mut stats_client = Client::connect(&addr2).expect("connect for stats");
    let stats_body = stats_client
        .request(&Request::control(None, "stats"))
        .expect("stats")
        .body
        .expect("stats body");
    let stats = ghd_core::json::Json::parse(&stats_body).expect("stats JSON");
    let stat_num = |k: &str| {
        stats
            .get(k)
            .and_then(ghd_core::json::Json::as_f64)
            .unwrap_or_else(|| panic!("stats field `{k}` missing: {stats_body}"))
    };
    let replayed = stat_num("replayed") as u64;
    let replay_verify_rejects = stat_num("replay_verify_rejects") as u64;
    let boot_replay_s = stat_num("boot_replay_s");
    assert_eq!(replayed as usize, items.len(), "every exact answer survives the restart");
    assert_eq!(replay_verify_rejects, 0, "no record fails re-verification");
    assert!(
        stats_client.request(&Request::control(None, "shutdown")).expect("shutdown").ok
    );
    let summary2 = daemon2.join().expect("replay daemon thread");
    assert!(summary2.contains("drained clean"), "{summary2}");
    let _ = std::fs::remove_file(&log_path);

    let mut t = Table::new(&["pass", "requests", "wall[s]", "req/s", "cache hits", "wait[ms]"]);
    let mut row = |name: &str, wall: f64, tele: &[(bool, f64)], hits: usize| {
        t.row(vec![
            name.to_string(),
            tele.len().to_string(),
            format!("{wall:.4}"),
            format!("{:.1}", tele.len() as f64 / wall),
            hits.to_string(),
            format!("{:.3}", 1e3 * mean_wait(tele)),
        ]);
    };
    row("cold", cold_wall, &cold, cold_hits);
    row("warm", warm_wall, &warm, warm_hits);
    row("warm-concurrent", cwarm_wall, &cwarm, hits(&cwarm));
    row("replay", replay_wall, &replay, hits(&replay));
    t.print();
    println!("\nspeedup (cold/warm wall): {:.2}x", cold_wall / warm_wall.max(1e-9));
    println!(
        "replay: {replayed} entries re-verified in {boot_replay_s:.4}s at boot \
         ({replay_verify_rejects} rejected)"
    );

    let mut json = String::new();
    Writer::new(&mut json).object(Layout::Lines, |o| {
        o.field("schema").str("ghd-bench-serve-v1");
        o.field("serve").object(Layout::Lines, |o| {
            o.field("workers").int(2usize);
            o.field("clients").int(clients);
            o.field("requests_per_pass").int(cold.len());
            o.field("cold_wall_s").f64(cold_wall, 6);
            o.field("warm_wall_s").f64(warm_wall, 6);
            o.field("concurrent_warm_wall_s").f64(cwarm_wall, 6);
            o.field("concurrent_warm_requests").int(cwarm.len());
            o.field("speedup").f64(cold_wall / warm_wall.max(1e-9), 3);
            o.field("cold_cache_hits").int(cold_hits);
            o.field("warm_cache_hits").int(warm_hits);
            o.field("warm_hit_rate").f64(warm_hits as f64 / warm.len() as f64, 3);
            o.field("mean_queue_wait_cold_s").f64(mean_wait(&cold), 6);
            o.field("mean_queue_wait_warm_s").f64(mean_wait(&warm), 6);
            o.field("replay_wall_s").f64(replay_wall, 6);
            o.field("replayed").int(replayed);
            o.field("replay_verify_rejects").int(replay_verify_rejects);
            o.field("boot_replay_s").f64(boot_replay_s, 6);
            o.field("instances").records(Layout::Inline, &items, |o, w| {
                o.field("name").str(w.name);
                o.field("cmd").str(w.cmd);
            });
        });
    });
    json.push('\n');
    std::fs::write(&out, &json).expect("write BENCH_serve.json");
    // the emitted document must parse with the workspace's own parser
    ghd_core::json::Json::parse(&json).expect("emitted JSON parses");
    println!("wrote {out}");
}
