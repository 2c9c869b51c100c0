//! Byte pins of every JSON document the daemon writes: the request line,
//! the response line with every optional field set and with none set, and
//! the `stats` body. Each rendering is compared with fixed bytes and read
//! back with [`ghd_core::json::Json::parse`].

use crate::server::{render_stats, ServeStats};
use crate::{Request, Response};
use ghd_core::json::Json;
use ghd_core::setcover::CacheStats;

/// Compares `actual` with the pinned bytes and checks that it parses.
fn pin(actual: &str, expected: &str) {
    assert_eq!(actual, expected, "rendering drifted; actual bytes:\n{actual}");
    Json::parse(actual).unwrap_or_else(|e| panic!("{e} in {actual}"));
}

/// Text holding every character class the writer escapes: a quote, a
/// backslash, `\n`, `\r`, `\t`, the control byte U+0001, and 2-, 3- and
/// 4-byte UTF-8.
const AWKWARD: &str = "a \"q\" b\\c\nd\re\tf\u{1}g é€😀";

#[test]
fn request_line_bytes_are_pinned() {
    let req = Request {
        id: Some(7),
        cmd: "tw".into(),
        instance: format!("p edge 2 1\ne 1 2\nc {AWKWARD}\n"),
        args: vec!["--method".into(), "bb".into(), AWKWARD.into()],
        target: Some(42),
    };
    pin(
        &req.render(),
        r#"{"id": 7, "cmd": "tw", "target": 42, "instance": "p edge 2 1\ne 1 2\nc a \"q\" b\\c\nd\re\tf\u0001g é€😀\n", "args": ["--method", "bb", "a \"q\" b\\c\nd\re\tf\u0001g é€😀"]}"#,
    );
    assert_eq!(Request::parse(&req.render()).unwrap(), req);
    pin(&Request::control(None, "stats").render(), r#"{"cmd": "stats"}"#);
}

#[test]
fn response_line_bytes_are_pinned() {
    let full = Response {
        id: Some(3),
        ok: true,
        body: Some(format!("graph: 2 vertices\n{AWKWARD}\n")),
        error: Some(AWKWARD.into()),
        code: Some(-70),
        cache_hit: Some(true),
        exact: Some(false),
        certified: Some(true),
        cancelled: Some(false),
        nodes_expanded: Some(12345),
        faults: Some(2),
        queue_wait_s: Some(0.000123),
        wall_s: Some(1.5),
    };
    pin(
        &full.render(),
        r#"{"id": 3, "ok": true, "body": "graph: 2 vertices\na \"q\" b\\c\nd\re\tf\u0001g é€😀\n", "error": "a \"q\" b\\c\nd\re\tf\u0001g é€😀", "code": -70, "cache_hit": true, "exact": false, "certified": true, "cancelled": false, "nodes_expanded": 12345, "faults": 2, "queue_wait_s": 0.000123, "wall_s": 1.500000}"#,
    );
    assert_eq!(Response::parse(&full.render()).unwrap(), full);
    pin(&Response::default().render(), r#"{"ok": false}"#);
}

#[test]
fn stats_body_bytes_are_pinned() {
    let s = ServeStats {
        requests: 11,
        completed: 9,
        cache_hits: 4,
        busy_rejections: 1,
        errors: 2,
        faults: 3,
        nodes_expanded: 4567,
        queue_wait_s: 0.25,
        wall_s: 1.0 / 3.0,
        cancelled: 1,
        conn_rejections: 5,
        idle_closed: 6,
        replayed: 7,
        replay_verify_rejects: 8,
        boot_replay_s: 0.0000015,
    };
    let cache = CacheStats { hits: 4, misses: 5, evictions: 0, entries: 5 };
    pin(
        &render_stats(&s, &cache, 2048, 2),
        r#"{"workers": 2, "requests": 11, "completed": 9, "errors": 2, "busy_rejections": 1, "faults": 3, "nodes_expanded": 4567, "queue_wait_s": 0.250000, "wall_s": 0.333333, "cancelled": 1, "conn_rejections": 5, "idle_closed": 6, "replayed": 7, "replay_verify_rejects": 8, "boot_replay_s": 0.000002, "cache": {"hits": 4, "misses": 5, "evictions": 0, "entries": 5, "bytes": 2048}}"#,
    );
}
