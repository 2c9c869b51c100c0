//! A minimal, zero-dependency JSON reader and writer: the one module that
//! decides JSON syntax in the workspace (the offline build forbids serde).
//!
//! The reader is a small recursive-descent parser producing a [`Json`]
//! tree: full JSON syntax, numbers kept as `f64`. The [`Writer`] emits
//! every document the workspace writes (`--stats json`, the daemon's wire
//! lines and `stats` body, the `BENCH_*.json` documents); the caller picks
//! a [`Layout`] per container.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (integers included).
    Number(f64),
    /// A string (escapes decoded).
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object; key order is not preserved (sorted map).
    Object(BTreeMap<String, Json>),
}

impl Json {
    /// Parses a complete JSON document (trailing whitespace allowed,
    /// trailing garbage rejected).
    pub fn parse(text: &str) -> Result<Json, ParseError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after JSON value"));
        }
        Ok(v)
    }

    /// Object member lookup (`None` for non-objects / missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(m) => m.get(key),
            _ => None,
        }
    }

    /// The elements if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(v) => Some(v),
            _ => None,
        }
    }

    /// The number if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(x) => Some(*x),
            _ => None,
        }
    }

    /// The string if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// Parse failure: message plus byte offset.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong.
    pub message: String,
    /// Byte offset in the input.
    pub offset: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Maximum container nesting accepted. A recursive-descent parser consumes
/// stack per nesting level, so an adversarial `[[[[…` document could
/// otherwise overflow the stack; 512 levels is far beyond any telemetry the
/// workspace emits.
const MAX_DEPTH: usize = 512;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> ParseError {
        ParseError {
            message: msg.to_string(),
            offset: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::String(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn enter(&mut self) -> Result<(), ParseError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        Ok(())
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.enter()?;
        let r = self.object_body();
        self.depth -= 1;
        r
    }

    fn object_body(&mut self) -> Result<Json, ParseError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(map));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.enter()?;
        let r = self.array_body();
        self.depth -= 1;
        r
    }

    fn array_body(&mut self) -> Result<Json, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // copy the run of plain bytes up to the next quote or escape in
            // one go; both delimiters are ASCII, so the run ends on a char
            // boundary of the (UTF-8) input
            let rest = &self.bytes[self.pos..];
            let run = rest.iter().position(|&b| b == b'"' || b == b'\\').unwrap_or(rest.len());
            if run > 0 {
                let plain = std::str::from_utf8(&rest[..run])
                    .map_err(|_| self.err("invalid UTF-8 in string"))?;
                out.push_str(plain);
                self.pos += run;
            }
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                // the run stopped at a backslash
                Some(_) => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("bad escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // surrogate pairs are rejected (not needed for
                            // telemetry); lone BMP code points are accepted
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("unsupported \\u code point"))?,
                            );
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        // the scanned range is ASCII by construction, but stay total anyway
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|text| text.parse::<f64>().ok())
            .filter(|x| x.is_finite())
            .map(Json::Number)
            .ok_or_else(|| self.err("bad number"))
    }
}

/// Escapes a string for embedding in emitted JSON (without the quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(&mut out, s);
    out
}

/// Appends `s` escaped to `out`. Each run of bytes that needs no escape is
/// copied with one `push_str`; every byte that does need one is ASCII, so
/// runs always end on char boundaries.
fn escape_into(out: &mut String, s: &str) {
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.push_str(&s[run..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => out.push_str(&format!("\\u{b:04x}")),
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
}

/// How a container lays out its members: `Inline` as `{"a": 1, "b": [2]}`;
/// `Lines` one member per line, indented two spaces per depth, with the
/// closing bracket on its own line at the parent's indent.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layout {
    Inline,
    Lines,
}

/// An integer type the [`Writer`] writes in decimal.
pub trait Int: fmt::Display {}
impl Int for u64 {}
impl Int for usize {}
impl Int for i64 {}

/// Writes one JSON value at the end of a caller-owned buffer. A container
/// hands out one writer per member, so a document is one nest of calls.
#[must_use = "a key or separator without its value is not JSON"]
pub struct Writer<'a> {
    out: &'a mut String,
    /// Nesting depth: the indent of a `Lines` container's closing bracket.
    depth: usize,
}

impl<'a> Writer<'a> {
    /// The writer of a top-level value.
    pub fn new(out: &'a mut String) -> Self {
        Writer { out, depth: 0 }
    }

    /// A string, quoted and escaped.
    pub fn str(self, s: &str) {
        self.out.push('"');
        escape_into(self.out, s);
        self.out.push('"');
    }

    pub fn int(self, n: impl Int) {
        let _ = write!(self.out, "{n}");
    }

    pub fn bool(self, b: bool) {
        self.out.push_str(if b { "true" } else { "false" });
    }

    pub fn null(self) {
        self.out.push_str("null");
    }

    /// A number with `decimals` digits after the point, or `null` when it
    /// is not finite: JSON has no `NaN` or infinity.
    pub fn f64(self, x: f64, decimals: usize) {
        if x.is_finite() {
            let _ = write!(self.out, "{x:.decimals$}");
        } else {
            self.null();
        }
    }

    /// An object whose members `fill` writes.
    pub fn object(self, layout: Layout, fill: impl FnOnce(&mut Object<'_>)) {
        let mut o = Object(Array::open(self, layout, '{'));
        fill(&mut o);
        o.0.close('}');
    }

    /// An array whose items `fill` writes.
    pub fn array(self, layout: Layout, fill: impl FnOnce(&mut Array<'_>)) {
        let mut a = Array::open(self, layout, '[');
        fill(&mut a);
        a.close(']');
    }

    /// An array of one inline object per item; `fill` writes its members.
    pub fn records<T>(
        self,
        layout: Layout,
        items: impl IntoIterator<Item = T>,
        fill: impl Fn(&mut Object<'_>, T),
    ) {
        self.array(layout, |a| {
            for item in items {
                a.item().object(Layout::Inline, |o| fill(o, item));
            }
        });
    }
}

/// The items of an array being written (see [`Writer::array`]).
pub struct Array<'a> {
    out: &'a mut String,
    depth: usize,
    layout: Layout,
    first: bool,
}

impl<'a> Array<'a> {
    fn open(w: Writer<'a>, layout: Layout, bracket: char) -> Self {
        w.out.push(bracket);
        Array { out: w.out, depth: w.depth, layout, first: true }
    }

    /// Writes the separator before the next item and returns its writer.
    pub fn item(&mut self) -> Writer<'_> {
        match self.layout {
            Layout::Inline if !self.first => self.out.push_str(", "),
            Layout::Inline => {}
            Layout::Lines => {
                self.out.push_str(if self.first { "\n" } else { ",\n" });
                self.out.extend(std::iter::repeat_n("  ", self.depth + 1));
            }
        }
        self.first = false;
        Writer { out: self.out, depth: self.depth + 1 }
    }

    fn close(self, bracket: char) {
        if self.layout == Layout::Lines {
            self.out.push('\n');
            self.out.extend(std::iter::repeat_n("  ", self.depth));
        }
        self.out.push(bracket);
    }
}

/// The members of an object being written: items that begin with a key.
pub struct Object<'a>(Array<'a>);

impl Object<'_> {
    /// Writes `key` and returns the writer of its value.
    pub fn field(&mut self, key: &str) -> Writer<'_> {
        let w = self.0.item();
        Writer::new(&mut *w.out).str(key);
        w.out.push_str(": ");
        w
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("false").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("42").unwrap(), Json::Number(42.0));
        assert_eq!(Json::parse("-3.25e2").unwrap(), Json::Number(-325.0));
        assert_eq!(
            Json::parse("\"a\\n\\\"b\\u0041\"").unwrap(),
            Json::String("a\n\"bA".to_string())
        );
    }

    #[test]
    fn parses_nested_structures() {
        let v = Json::parse(
            r#"{"bench": "x", "results": [{"lb": 1, "ub": 2, "trace": [[0.5, 3, 1]]}], "ok": true}"#,
        )
        .unwrap();
        assert_eq!(v.get("bench").and_then(Json::as_str), Some("x"));
        let results = v.get("results").and_then(Json::as_array).unwrap();
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].get("lb").and_then(Json::as_f64), Some(1.0));
        let trace = results[0].get("trace").and_then(Json::as_array).unwrap();
        assert_eq!(trace[0].as_array().unwrap()[1], Json::Number(3.0));
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
    }

    #[test]
    fn rejects_pathological_nesting_and_numbers() {
        // 100 levels is fine…
        let ok = format!("{}1{}", "[".repeat(100), "]".repeat(100));
        assert!(Json::parse(&ok).is_ok());
        // …but unbounded nesting is rejected, not a stack overflow
        let deep = format!("{}1{}", "[".repeat(100_000), "]".repeat(100_000));
        let e = Json::parse(&deep).unwrap_err();
        assert!(e.message.contains("nesting too deep"), "{e}");
        let deep_obj = "{\"k\":".repeat(100_000);
        assert!(Json::parse(&deep_obj).is_err());
        // sibling (non-nested) containers do not accumulate depth
        let wide = format!("[{}]", vec!["[1]"; 2000].join(","));
        assert!(Json::parse(&wide).is_ok());
        // degenerate numbers return Err rather than panicking or
        // smuggling non-finite values into telemetry consumers
        for bad in ["-", "1e999", "-1e999", "--1", "1e", "1e+"] {
            assert!(Json::parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,", "{\"a\":}", "tru", "1 2", "\"unterminated", "{'a': 1}"] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn empty_containers() {
        assert_eq!(Json::parse("[]").unwrap(), Json::Array(Vec::new()));
        assert_eq!(Json::parse("{}").unwrap(), Json::Object(Default::default()));
        assert_eq!(Json::parse("[ ]").unwrap().as_array().unwrap().len(), 0);
    }

    #[test]
    fn escape_round_trips_through_parse() {
        let s = "line1\nline2\t\"quoted\" \\ end";
        let doc = format!("{{\"k\": \"{}\"}}", escape(s));
        let v = Json::parse(&doc).unwrap();
        assert_eq!(v.get("k").and_then(Json::as_str), Some(s));
    }

    /// The char-by-char `escape` the run-copying one replaced, kept as the
    /// oracle for byte-identical output.
    fn escape_per_char(s: &str) -> String {
        let mut out = String::with_capacity(s.len());
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out
    }

    /// A seeded string mixing plain ASCII, quotes, backslashes, every
    /// control byte, 2/3/4-byte UTF-8 and literal `\uXXXX` text.
    fn random_text(rng: &mut ghd_prng::Xoshiro256PlusPlus) -> String {
        use ghd_prng::RngExt;
        const PIECES: &[&str] =
            &["\"", "\\", "\\u0041", "\\n", "/", "é", "ß", "€", "✓", "\u{a0}", "𝄞", "😀", "\u{7f}"];
        let len = rng.random_range(0..40usize);
        let mut s = String::new();
        for _ in 0..len {
            match rng.random_range(0..4u32) {
                0 => s.push(char::from(rng.random_range(0..0x20u8))),
                1 => s.push_str(PIECES[rng.random_range(0..PIECES.len())]),
                _ => s.push(char::from(rng.random_range(0x20..0x7fu8))),
            }
        }
        s
    }

    #[test]
    fn escape_matches_the_per_char_oracle_and_round_trips() {
        let mut rng = ghd_prng::Xoshiro256PlusPlus::seed_from_u64(0x1507);
        let mut every_control = String::new();
        for b in 0..0x20u8 {
            every_control.push(char::from(b));
        }
        let fixed = ["", "plain", "\"\\", every_control.as_str(), "a\u{0}b", "ü\"ü"];
        let random: Vec<String> = (0..2000).map(|_| random_text(&mut rng)).collect();
        for s in fixed.iter().copied().chain(random.iter().map(String::as_str)) {
            let escaped = escape(s);
            assert_eq!(escaped, escape_per_char(s), "escape drifted on {s:?}");
            let back = Json::parse(&format!("\"{escaped}\"")).unwrap();
            assert_eq!(back.as_str(), Some(s), "round trip of {s:?}");
        }
    }

    #[test]
    fn unicode_escapes_decode_between_plain_runs() {
        let mut rng = ghd_prng::Xoshiro256PlusPlus::seed_from_u64(0xE5C);
        for _ in 0..500 {
            use ghd_prng::RngExt;
            // a literal alternating plain runs with \uXXXX escapes of
            // random non-surrogate BMP code points
            let (mut literal, mut expect) = (String::from("\""), String::new());
            for _ in 0..rng.random_range(0..8usize) {
                let plain = random_text(&mut rng);
                literal.push_str(&escape(&plain));
                expect.push_str(&plain);
                let c = loop {
                    if let Some(c) = char::from_u32(rng.random_range(0..0x1_0000u32)) {
                        break c;
                    }
                };
                literal.push_str(&format!("\\u{:04X}", c as u32));
                expect.push(c);
            }
            literal.push('"');
            assert_eq!(Json::parse(&literal).unwrap().as_str(), Some(expect.as_str()), "{literal:?}");
        }
        // offsets of string errors are where the scan stopped
        assert_eq!(Json::parse("\"abc").unwrap_err().offset, 4);
        assert_eq!(Json::parse("\"ab\\q\"").unwrap_err().message, "unknown escape");
        assert_eq!(Json::parse("\"ab\\u12\"").unwrap_err().message, "bad \\u escape");
    }

    #[test]
    fn writer_lays_out_each_container_as_asked() {
        let mut out = String::new();
        Writer::new(&mut out).object(Layout::Lines, |o| {
            o.field("a").int(1usize);
            o.field("inline").object(Layout::Inline, |o| {
                o.field("b").array(Layout::Inline, |a| {
                    a.item().int(2u64);
                    a.item().int(-3i64);
                });
                o.field("c").null();
            });
            o.field("rows").array(Layout::Lines, |a| {
                a.item().bool(true);
                a.item().object(Layout::Lines, |o| o.field("d").bool(false));
            });
            o.field("none").array(Layout::Inline, |_| {});
            o.field("empty").array(Layout::Lines, |_| {});
            o.field("records").records(Layout::Lines, [4u64, 5], |o, n| o.field("n").int(n));
        });
        assert_eq!(
            out,
            "{\n  \"a\": 1,\n  \"inline\": {\"b\": [2, -3], \"c\": null},\n  \"rows\": [\n    true,\n    \
             {\n      \"d\": false\n    }\n  ],\n  \"none\": [],\n  \"empty\": [\n  ],\n  \
             \"records\": [\n    {\"n\": 4},\n    {\"n\": 5}\n  ]\n}"
        );
        assert!(Json::parse(&out).is_ok());
    }

    #[test]
    fn writer_numbers_take_the_callers_decimals_and_never_write_nan() {
        let mut out = String::new();
        Writer::new(&mut out).array(Layout::Inline, |a| {
            a.item().f64(1.0 / 3.0, 6);
            a.item().f64(2.5, 0);
            a.item().f64(f64::NAN, 6);
            a.item().f64(f64::INFINITY, 3);
            a.item().f64(f64::NEG_INFINITY, 3);
            a.item().int(usize::MAX);
        });
        assert_eq!(out, "[0.333333, 2, null, null, null, 18446744073709551615]");
        assert!(Json::parse(&out).is_ok());
    }

    #[test]
    fn writer_strings_round_trip_as_keys_and_values() {
        let mut rng = ghd_prng::Xoshiro256PlusPlus::seed_from_u64(0x3717);
        for _ in 0..1000 {
            let s = random_text(&mut rng);
            let mut out = String::from("junk before: ");
            let start = out.len();
            Writer::new(&mut out).object(Layout::Inline, |o| o.field(&s).str(&s));
            assert_eq!(&out[start..], format!("{{\"{0}\": \"{0}\"}}", escape(&s)));
            let v = Json::parse(&out[start..]).unwrap();
            assert_eq!(v.get(&s).and_then(Json::as_str), Some(s.as_str()), "{s:?}");
        }
    }

    #[test]
    fn unicode_passthrough() {
        let v = Json::parse("\"αβ✓\"").unwrap();
        assert_eq!(v.as_str(), Some("αβ✓"));
    }
}
