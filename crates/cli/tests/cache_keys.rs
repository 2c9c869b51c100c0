//! Cache keys of the daemon's solver: the key follows the canonical text,
//! not the request bytes, and cache-log records written under an older
//! bucket hash are refused at boot without being truncated away.

use ghd_cli::{run, CliSolver};
use ghd_core::canon::log::CacheLog;
use ghd_core::canon::{text_hash, CachedDecomp};
use ghd_core::json::Json;
use ghd_serve::{Client, Request, Server, ServerConfig, Solver};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::thread;

fn gen(args: &[&str]) -> String {
    run(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>()).expect("gen succeeds")
}

fn strings(args: &[&str]) -> Vec<String> {
    args.iter().map(|s| s.to_string()).collect()
}

#[test]
fn commented_reflowed_instances_key_like_their_canonical_text() {
    let solver = CliSolver::default();
    let args = strings(&["--method", "bb"]);

    let hyper = gen(&["gen", "clique", "6"]);
    let canon = solver.cache_key("ghw", &hyper, &args).expect("parses").canon;
    // comments, CRLF, padding and non-ASCII whitespace between atoms
    let reflowed = format!(
        "% a clique\r\n{}# end\r\n",
        canon.replace(",\n", " ,\u{a0}\r\n  # next atom\r\n").replace('(', " ( ").replace(',', " , ")
    );
    let graph = gen(&["gen", "grid", "4"]);
    let mut lines: Vec<&str> = graph.lines().collect();
    lines[1..].reverse(); // edge order never reaches the canonical text
    let commented = format!("c a grid\r\n{}\r\nc trailing\r\n", lines.join("\r\n  "));

    for (cmd, text) in [("ghw", &reflowed), ("tw", &commented)] {
        let key = solver.cache_key(cmd, text, &args).expect("parses");
        let canon_key = solver.cache_key(cmd, &key.canon, &args).expect("canonical text parses");
        assert_eq!(key, canon_key, "{cmd}: key of {text:?}");
        assert_eq!(key.hash, text_hash(&key.canon));
        assert!(solver.verify_replay(&key));
    }
    let original = solver.cache_key("ghw", &hyper, &args).unwrap();
    assert_eq!(solver.cache_key("ghw", &reflowed, &args).unwrap(), original);
}

fn boot(log: &std::path::Path) -> (String, thread::JoinHandle<String>) {
    let cfg = ServerConfig { workers: 1, log_path: Some(log.to_path_buf()), ..ServerConfig::default() };
    let server = Server::bind("127.0.0.1:0", cfg, Arc::new(CliSolver::default()) as Arc<dyn Solver>)
        .expect("bind a free port");
    let addr = server.local_addr();
    (addr, thread::spawn(move || server.run()))
}

fn replay_counts(client: &mut Client) -> (f64, f64) {
    let stats = client.request(&Request::control(None, "stats")).unwrap().body.unwrap();
    let v = Json::parse(&stats).expect("stats JSON");
    let count = |k: &str| v.get(k).and_then(Json::as_f64).unwrap_or(-1.0);
    (count("replayed"), count("replay_verify_rejects"))
}

fn shutdown(addr: &str, handle: thread::JoinHandle<String>) {
    let mut c = Client::connect(addr).expect("connect for shutdown");
    assert!(c.request(&Request::control(None, "shutdown")).expect("shutdown").ok);
    let summary = handle.join().expect("server thread");
    assert!(summary.contains("drained clean"), "{summary}");
}

/// Records written under the structural refinement hash that keyed the
/// cache before `text_hash` (values computed by that build) fail replay
/// verification, stay in the file, and are superseded by fresh appends.
#[test]
fn stale_hash_records_are_rejected_kept_and_superseded() {
    let solver = CliSolver::default();
    let args = strings(&["--method", "bb"]);
    let instances = [
        ("tw", gen(&["gen", "grid", "4"]), 0x200d_4065_81a8_5607u64),
        ("ghw", gen(&["gen", "clique", "6"]), 0x34a3_7294_8122_b402u64),
    ];
    let log = std::env::temp_dir().join(format!("ghd-stale-hash-{}.cachelog", std::process::id()));
    let _ = std::fs::remove_file(&log);

    let mut bodies = Vec::new();
    {
        let (mut writer, _, _) = CacheLog::open(&log, |_| true).expect("create log");
        for (cmd, instance, old_hash) in &instances {
            let mut key = solver.cache_key(cmd, instance, &args).expect("parses");
            assert_ne!(key.hash, *old_hash);
            key.hash = *old_hash;
            let cancel = Arc::new(AtomicBool::new(false));
            let out = solver.solve(cmd, instance, &args, &cancel).expect("solves");
            writer.append(&key, &CachedDecomp { body: out.body.clone(), width: out.width }).unwrap();
            bodies.push(out.body);
        }
        writer.sync().unwrap();
    }
    let stale_len = std::fs::metadata(&log).unwrap().len();

    // first boot: every stale record is refused, none is truncated, and
    // the instances are solved again (misses) and appended afresh
    let (addr, handle) = boot(&log);
    assert_eq!(std::fs::metadata(&log).unwrap().len(), stale_len, "boot kept the stale records");
    let mut client = Client::connect(&addr).expect("connect");
    assert_eq!(replay_counts(&mut client), (0.0, 2.0));
    for ((cmd, instance, _), body) in instances.iter().zip(&bodies) {
        let resp = client.request(&Request::solve(None, cmd, instance, &args)).unwrap();
        assert_eq!(resp.cache_hit, Some(false), "{cmd}: stale record must not answer");
        assert_eq!(resp.body.as_ref(), Some(body), "{cmd}: same body as the stale record");
    }
    shutdown(&addr, handle);
    let fresh_len = std::fs::metadata(&log).unwrap().len();
    assert!(fresh_len > stale_len, "fresh records appended after the stale ones");

    // second boot: the fresh records replay, the stale ones are still
    // counted and still in the file
    let (addr, handle) = boot(&log);
    assert_eq!(std::fs::metadata(&log).unwrap().len(), fresh_len);
    let mut client = Client::connect(&addr).expect("connect");
    assert_eq!(replay_counts(&mut client), (2.0, 2.0));
    for ((cmd, instance, _), body) in instances.iter().zip(&bodies) {
        let resp = client.request(&Request::solve(None, cmd, instance, &args)).unwrap();
        assert_eq!(resp.cache_hit, Some(true), "{cmd}: fresh record answers");
        assert_eq!(resp.body.as_ref(), Some(body));
    }
    shutdown(&addr, handle);
    let _ = std::fs::remove_file(&log);
}
