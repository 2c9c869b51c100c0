//! The newline-delimited JSON wire protocol.
//!
//! One request per line, one response line per request, in order. Both
//! sides read and write the lines with the workspace's zero-dependency
//! [`ghd_core::json`] reader and writer.
//!
//! Request: `{"id": 1, "cmd": "tw", "instance": "p edge …", "args":
//! ["--method", "bb"]}` — `id` is an optional client-chosen correlation
//! number echoed back verbatim; `instance` carries the full instance file
//! text; `args` are exactly the flags the one-shot CLI would take.
//! Control commands `ping`, `stats`, and `shutdown` need no instance.
//!
//! Response: `{"id": 1, "ok": true, "body": "…", "cache_hit": false,
//! "exact": true, …}` on success, `{"id": 1, "ok": false, "error": "…",
//! "code": 64}` on failure. `code` follows the CLI's `sysexits` mapping,
//! plus `503` for backpressure (`busy`) and drain (`draining`) rejections.

use ghd_core::json::{Json, Layout, Writer};

/// One client request (see the module docs for the wire shape).
#[derive(Clone, Debug, PartialEq)]
pub struct Request {
    /// Client-chosen correlation id, echoed in the response.
    pub id: Option<u64>,
    /// `tw`, `ghw`, `ping`, `stats`, `cancel`, or `shutdown`.
    pub cmd: String,
    /// Full instance file text (solve commands only).
    pub instance: String,
    /// CLI flags for the solve, e.g. `["--method", "bb"]`.
    pub args: Vec<String>,
    /// For `cancel`: the correlation id of the in-flight solve to stop.
    pub target: Option<u64>,
}

impl Request {
    /// A solve request for `cmd` over `instance` with `args`.
    pub fn solve(id: Option<u64>, cmd: &str, instance: &str, args: &[String]) -> Request {
        Request { id, cmd: cmd.into(), instance: instance.into(), args: args.to_vec(), target: None }
    }

    /// An instance-less control request (`ping` / `stats` / `shutdown`).
    pub fn control(id: Option<u64>, cmd: &str) -> Request {
        Request { id, cmd: cmd.into(), instance: String::new(), args: Vec::new(), target: None }
    }

    /// A `cancel` request against the in-flight solve whose correlation
    /// id is `target`. Sent on a second connection — the submitting
    /// connection is blocked waiting for its answer.
    pub fn cancel(id: Option<u64>, target: u64) -> Request {
        Request {
            id,
            cmd: "cancel".into(),
            instance: String::new(),
            args: Vec::new(),
            target: Some(target),
        }
    }

    /// Renders the request as one JSON line (no trailing newline).
    pub fn render(&self) -> String {
        let mut s = String::new();
        Writer::new(&mut s).object(Layout::Inline, |o| {
            if let Some(id) = self.id {
                o.field("id").int(id);
            }
            o.field("cmd").str(&self.cmd);
            if let Some(t) = self.target {
                o.field("target").int(t);
            }
            if !self.instance.is_empty() {
                o.field("instance").str(&self.instance);
            }
            if !self.args.is_empty() {
                o.field("args").array(Layout::Inline, |a| {
                    for arg in &self.args {
                        a.item().str(arg);
                    }
                });
            }
        });
        s
    }

    /// Parses one request line.
    pub fn parse(line: &str) -> Result<Request, String> {
        let v = Json::parse(line).map_err(|e| format!("{} at byte {}", e.message, e.offset))?;
        let cmd = v
            .get("cmd")
            .and_then(Json::as_str)
            .ok_or("missing `cmd` string")?
            .to_string();
        let id = opt_u64(&v, "id")?;
        let instance = v
            .get("instance")
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_string();
        let args = match v.get("args") {
            None => Vec::new(),
            Some(a) => a
                .as_array()
                .ok_or("`args` must be an array of strings")?
                .iter()
                .map(|x| x.as_str().map(String::from).ok_or("`args` must be an array of strings"))
                .collect::<Result<Vec<_>, _>>()?,
        };
        let target = opt_u64(&v, "target")?;
        Ok(Request { id, cmd, instance, args, target })
    }
}

/// Reads member `key` as an exact unsigned integer: absent or `null` is
/// `None`, and anything but a digits-only literal within `u64` is an error,
/// never a cast.
fn opt_u64(v: &Json, key: &str) -> Result<Option<u64>, String> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(x) => {
            let bad = || format!("`{key}` must be an integer in 0..=2^64-1");
            x.as_u64().map(Some).ok_or_else(bad)
        }
    }
}

/// One server response line (see the module docs for the wire shape).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Response {
    /// The request's correlation id, echoed back.
    pub id: Option<u64>,
    /// `true` iff the request was answered (solve finished, control ran).
    pub ok: bool,
    /// Response payload: the solver's full stdout for solves, a JSON
    /// document for `stats`, a short token for control commands.
    pub body: Option<String>,
    /// Diagnostic when `ok` is `false`.
    pub error: Option<String>,
    /// Error category when `ok` is `false`: the CLI `sysexits` code, or
    /// `503` for `busy` / `draining` rejections.
    pub code: Option<i64>,
    /// `true` iff the body came from the decomposition cache.
    pub cache_hit: Option<bool>,
    /// Mirrors [`SolveOutcome::exact`](crate::SolveOutcome::exact).
    pub exact: Option<bool>,
    /// Mirrors [`SolveOutcome::certified`](crate::SolveOutcome::certified).
    pub certified: Option<bool>,
    /// `true` iff the solve was stopped by a `cancel` request; the body
    /// then carries the certified anytime bounds, like a budget expiry.
    pub cancelled: Option<bool>,
    /// Node expansions this request cost (0 on a cache hit).
    pub nodes_expanded: Option<u64>,
    /// Worker faults contained while solving this request.
    pub faults: Option<u64>,
    /// Seconds the request sat in the accept queue.
    pub queue_wait_s: Option<f64>,
    /// Seconds of solve wall clock (0 on a cache hit).
    pub wall_s: Option<f64>,
}

impl Response {
    /// A successful response carrying only a body.
    pub fn ok_body(id: Option<u64>, body: impl Into<String>) -> Response {
        Response { id, ok: true, body: Some(body.into()), ..Response::default() }
    }

    /// A failed response with an error category code.
    pub fn fail(id: Option<u64>, code: i64, error: impl Into<String>) -> Response {
        Response { id, ok: false, error: Some(error.into()), code: Some(code), ..Response::default() }
    }

    /// Renders the response as one JSON line (no trailing newline).
    pub fn render(&self) -> String {
        // room for the other members and for the escapes of a body of many
        // short lines: a warm hit's body is written without regrowing
        let text = self.body.as_ref().or(self.error.as_ref()).map_or(0, String::len);
        let mut s = String::with_capacity(160 + text + text / 8);
        Writer::new(&mut s).object(Layout::Inline, |o| {
            if let Some(id) = self.id {
                o.field("id").int(id);
            }
            o.field("ok").bool(self.ok);
            for (key, t) in [("body", &self.body), ("error", &self.error)] {
                if let Some(t) = t {
                    o.field(key).str(t);
                }
            }
            if let Some(c) = self.code {
                o.field("code").int(c);
            }
            for (key, flag) in [
                ("cache_hit", self.cache_hit),
                ("exact", self.exact),
                ("certified", self.certified),
                ("cancelled", self.cancelled),
            ] {
                if let Some(b) = flag {
                    o.field(key).bool(b);
                }
            }
            for (key, n) in [("nodes_expanded", self.nodes_expanded), ("faults", self.faults)] {
                if let Some(n) = n {
                    o.field(key).int(n);
                }
            }
            for (key, x) in [("queue_wait_s", self.queue_wait_s), ("wall_s", self.wall_s)] {
                if let Some(x) = x {
                    o.field(key).f64(x, 6);
                }
            }
        });
        s
    }

    /// Parses one response line.
    pub fn parse(line: &str) -> Result<Response, String> {
        let v = Json::parse(line).map_err(|e| format!("{} at byte {}", e.message, e.offset))?;
        let ok = v.get("ok").and_then(Json::as_bool).ok_or("missing `ok` boolean")?;
        Ok(Response {
            id: opt_u64(&v, "id")?,
            ok,
            body: v.get("body").and_then(Json::as_str).map(String::from),
            error: v.get("error").and_then(Json::as_str).map(String::from),
            code: v.get("code").and_then(Json::as_f64).map(|x| x as i64),
            cache_hit: v.get("cache_hit").and_then(Json::as_bool),
            exact: v.get("exact").and_then(Json::as_bool),
            certified: v.get("certified").and_then(Json::as_bool),
            cancelled: v.get("cancelled").and_then(Json::as_bool),
            nodes_expanded: v.get("nodes_expanded").and_then(Json::as_f64).map(|x| x as u64),
            faults: v.get("faults").and_then(Json::as_f64).map(|x| x as u64),
            queue_wait_s: v.get("queue_wait_s").and_then(Json::as_f64),
            wall_s: v.get("wall_s").and_then(Json::as_f64),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trips_with_escapes() {
        let req = Request::solve(
            Some(7),
            "tw",
            "p edge 2 1\ne 1 2\n",
            &["--method".to_string(), "bb".to_string()],
        );
        let parsed = Request::parse(&req.render()).unwrap();
        assert_eq!(parsed, req);
        let ctrl = Request::control(None, "ping");
        assert_eq!(Request::parse(&ctrl.render()).unwrap(), ctrl);
        let cancel = Request::cancel(Some(8), 42);
        let parsed = Request::parse(&cancel.render()).unwrap();
        assert_eq!(parsed, cancel);
        assert_eq!(parsed.target, Some(42));
        // ids past 2^53 survive exactly: they are never read through f64
        for id in [0, (1u64 << 53) + 1, u64::MAX] {
            let req = Request::control(Some(id), "ping");
            assert_eq!(Request::parse(&req.render()).unwrap(), req, "request id {id}");
            let cancel = Request::cancel(None, id);
            assert_eq!(Request::parse(&cancel.render()).unwrap(), cancel, "target {id}");
        }
    }

    #[test]
    fn response_round_trips() {
        let resp = Response {
            id: Some(3),
            ok: true,
            body: Some("graph: 2 vertices, 1 edges\nwidth = 1 (exact)\n".into()),
            cache_hit: Some(true),
            exact: Some(true),
            certified: Some(true),
            nodes_expanded: Some(0),
            faults: Some(0),
            queue_wait_s: Some(0.000123),
            wall_s: Some(0.0),
            ..Response::default()
        };
        let parsed = Response::parse(&resp.render()).unwrap();
        assert_eq!(parsed, resp);
        let fail = Response::fail(None, 503, "busy");
        assert_eq!(Response::parse(&fail.render()).unwrap(), fail);
        let cancelled = Response {
            id: Some(42),
            ok: true,
            body: Some("4 <= width <= 7 (cancelled)\n".into()),
            exact: Some(false),
            cancelled: Some(true),
            ..Response::default()
        };
        assert_eq!(Response::parse(&cancelled.render()).unwrap(), cancelled);
        for id in [0, (1u64 << 53) + 1, u64::MAX] {
            let resp = Response::fail(Some(id), 69, "no such solve");
            assert_eq!(Response::parse(&resp.render()).unwrap(), resp, "response id {id}");
        }
    }

    #[test]
    fn malformed_lines_are_rejected_with_reasons() {
        assert!(Request::parse("not json").is_err());
        assert!(Request::parse("{}").unwrap_err().contains("cmd"));
        assert!(Request::parse("{\"cmd\": \"tw\", \"args\": 3}").unwrap_err().contains("args"));
        assert!(Response::parse("{}").unwrap_err().contains("ok"));
        // an id or target outside u64 is malformed, never cast
        for bad in ["-1", "1.5", "18446744073709551616", "1e3", "\"7\""] {
            for key in ["id", "target"] {
                let line = format!("{{\"cmd\": \"cancel\", \"{key}\": {bad}}}");
                let err = Request::parse(&line).expect_err(&line);
                assert!(err.contains(key), "{line}: {err}");
            }
            let line = format!("{{\"ok\": true, \"id\": {bad}}}");
            assert!(Response::parse(&line).is_err(), "{line}");
        }
    }
}
